"""Per-round invariant checkers — the proof obligations, executable.

Each checker corresponds to a claim used in the correctness proof of
``WAIT-FREE-GATHER``; experiment E3 and the integration tests attach them
to the engine as observers and fail loudly on any violation.

=======================  =====================================================
Checker                  Paper claim
=======================  =====================================================
wait-freedom             Lemma 5.1: at most one occupied location is told to
                         stay put.
class transitions        Lemmas 5.3-5.9: the class reachability diagram
                         (``M -> M``, ``L1W -> {M, L1W}``,
                         ``QR -> {M, L1W, QR}``, ``A -> {M, L1W, QR, A}``,
                         ``L2W -> anything except B``; ``B`` unreachable
                         from every class).
Weber invariance         Lemma 3.2 via claims C1 of Lemmas 5.4/5.5: the Weber
                         point is unchanged while in ``L1W``/``QR``.
max-multiplicity point   Lemma 5.3 claim C1: in ``M`` the unique maximum
                         stays the unique maximum (no rival multiplicity).
phi progress             Lemma 5.6 claim C2: in ``A``, if the configuration
                         changes then ``phi = (max mult, -min distance sum)``
                         does not regress.
safe-point preservation  Lemma 5.6 claim C1: the elected safe point remains
                         safe after the move.
=======================  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from ..core import (
    ConfigClass,
    Configuration,
    classify,
    destination_map,
    is_safe_point,
    quasi_regularity,
    linear_weber_points,
)
from ..geometry import Point, sum_of_distances
from ..sim.trace import RoundRecord

__all__ = [
    "InvariantViolation",
    "check_wait_freedom",
    "ALLOWED_TRANSITIONS",
    "check_class_transition",
    "exact_weber_point",
    "elected_target",
    "InvariantMonitor",
    "phi",
    "verify_trace",
]


class InvariantViolation(AssertionError):
    """A proof obligation failed on a concrete execution."""


# -- Lemma 5.1: wait-freedom ---------------------------------------------------


def check_wait_freedom(config: Configuration) -> None:
    """Lemma 5.1: ``|U(P \\ M(P, A))| <= 1`` for ``WAIT-FREE-GATHER``.

    Computes the algorithm's instruction for every occupied location and
    counts the locations allowed to stay.
    """
    stays = 0
    for position, destination in destination_map(config).items():
        if destination.close_to(position, config.tol):
            stays += 1
    if stays > 1:
        raise InvariantViolation(
            f"wait-freedom violated: {stays} occupied locations were "
            f"instructed to stay in {config!r}"
        )


# -- Lemmas 5.3-5.9: the class reachability diagram -----------------------------

#: ``before -> allowed afters`` under one round of WAIT-FREE-GATHER.
ALLOWED_TRANSITIONS: Dict[ConfigClass, Set[ConfigClass]] = {
    ConfigClass.MULTIPLE: {ConfigClass.MULTIPLE},
    ConfigClass.LINEAR_UNIQUE_WEBER: {
        ConfigClass.MULTIPLE,
        ConfigClass.LINEAR_UNIQUE_WEBER,
    },
    ConfigClass.QUASI_REGULAR: {
        ConfigClass.MULTIPLE,
        ConfigClass.LINEAR_UNIQUE_WEBER,
        ConfigClass.QUASI_REGULAR,
    },
    ConfigClass.ASYMMETRIC: {
        ConfigClass.MULTIPLE,
        ConfigClass.LINEAR_UNIQUE_WEBER,
        ConfigClass.QUASI_REGULAR,
        ConfigClass.ASYMMETRIC,
    },
    ConfigClass.LINEAR_MANY_WEBER: {
        ConfigClass.MULTIPLE,
        ConfigClass.LINEAR_UNIQUE_WEBER,
        ConfigClass.LINEAR_MANY_WEBER,
        ConfigClass.QUASI_REGULAR,
        ConfigClass.ASYMMETRIC,
    },
    # B is absorbing for the checker's purposes (the algorithm refuses).
    ConfigClass.BIVALENT: {ConfigClass.BIVALENT},
}


def check_class_transition(before: ConfigClass, after: ConfigClass) -> None:
    """Raise unless ``before -> after`` is permitted by Lemmas 5.3-5.9."""
    allowed = ALLOWED_TRANSITIONS[before]
    if after not in allowed:
        raise InvariantViolation(
            f"illegal class transition {before} -> {after}; "
            f"allowed: {sorted(c.value for c in allowed)}"
        )


# -- Weber invariance -----------------------------------------------------------


def exact_weber_point(config: Configuration) -> Optional[Point]:
    """The exactly-computable Weber point when the class provides one."""
    cls = classify(config)
    if cls is ConfigClass.QUASI_REGULAR:
        return quasi_regularity(config).center
    if cls is ConfigClass.LINEAR_UNIQUE_WEBER:
        return linear_weber_points(config)[0]
    return None


# -- Lemma 5.6: the progress measure phi ------------------------------------------


def phi(config: Configuration) -> Tuple[int, float]:
    """The paper's ``phi(C)``: lexicographic ``(max mult(p), 1/sum dist)``.

    Returned as ``(max multiplicity, -min distance sum)`` so plain tuple
    comparison realizes the paper's order (bigger is progress).
    """
    best: Optional[Tuple[int, float]] = None
    for p in config.support:
        key = (config.mult(p), -sum_of_distances(p, config.points))
        if best is None or key > best:
            best = key
    assert best is not None
    return best


# -- Lemma 5.6 C1: safe-point preservation -------------------------------------


def elected_target(record: RoundRecord) -> Optional[Point]:
    """The common point the round's movers were sent to, if any.

    In class ``A`` the algorithm sends every active robot towards one
    elected safe point; robots already there are told to stay.  The
    recorded destinations recover that election without re-running the
    algorithm: it is the unique destination assigned to a robot located
    elsewhere.  Returns ``None`` when no robot was told to move or when
    the movers disagree (not a class-``A`` round).
    """
    before = record.config_before
    targets = {
        dest
        for rid, dest in record.destinations.items()
        if not dest.close_to(
            before.points[rid], before.tol
        )
    }
    if len(targets) != 1:
        return None
    return next(iter(targets))


def check_safe_point_preserved(record: RoundRecord) -> None:
    """Lemma 5.6 claim C1: the elected safe point stays safe.

    Applies to rounds that start in class ``A``: the elected target must
    be a safe occupied position before the move, and — since the robots
    standing on it are told to stay — must still be a safe occupied
    position after the simultaneous moves complete or are truncated.
    """
    target = elected_target(record)
    if target is None:
        return
    before, after = record.config_before, record.config_after
    if before.locate(target) is None:
        return  # not an occupied position: not an election round
    if not is_safe_point(before, target):
        raise InvariantViolation(
            f"elected target {target!r} is not a safe point of the "
            f"configuration it was elected in"
        )
    landed = after.locate(target)
    if landed is not None and not is_safe_point(after, landed):
        raise InvariantViolation(
            f"Lemma 5.6 C1 violated: elected safe point {target!r} is "
            f"no longer safe after the move"
        )


# -- the engine observer ------------------------------------------------------------


@dataclass
class InvariantMonitor:
    """Engine observer enforcing every checkable proof obligation.

    Attach with ``sim.add_observer(monitor)``; any violation raises
    :class:`InvariantViolation` out of ``Simulation.step``.

    ``check_wait_freedom`` invokes the algorithm an extra ``|U(C)|``
    times per round, so the monitor roughly doubles simulation cost;
    it is meant for tests and the E3 experiment, not for large sweeps.
    """

    check_waitfree: bool = True
    check_transitions: bool = True
    check_weber: bool = True
    check_multiplicity: bool = True
    check_phi: bool = True
    check_safe: bool = True
    rounds_checked: int = field(default=0, init=False)

    def __call__(self, record: RoundRecord) -> None:
        before = record.config_before
        after = record.config_after
        cls_before = record.config_class
        cls_after = classify(after)
        self.rounds_checked += 1

        if self.check_waitfree and cls_before is not ConfigClass.BIVALENT:
            check_wait_freedom(before)

        if self.check_transitions:
            check_class_transition(cls_before, cls_after)

        if self.check_weber and cls_before in (
            ConfigClass.QUASI_REGULAR,
            ConfigClass.LINEAR_UNIQUE_WEBER,
        ):
            wp_before = exact_weber_point(before)
            wp_after = exact_weber_point(after)
            # The class may have advanced to M (no exact WP there); the
            # invariance claim applies while the class persists.
            if wp_before is not None and wp_after is not None:
                # Partial moves keep the weber point within solver noise;
                # compare with the configuration tolerance.
                if not wp_before.close_to(wp_after, before.tol):
                    raise InvariantViolation(
                        f"Weber point drifted: {wp_before!r} -> {wp_after!r} "
                        f"({cls_before} -> {cls_after})"
                    )

        if self.check_multiplicity and cls_before is ConfigClass.MULTIPLE:
            top_before = before.max_multiplicity_points()[0]
            tops_after = after.max_multiplicity_points()
            if len(tops_after) != 1 or not tops_after[0].close_to(
                top_before, before.tol
            ):
                raise InvariantViolation(
                    "Lemma 5.3 C1 violated: the unique maximum-multiplicity "
                    f"point changed ({top_before!r} -> {tops_after!r})"
                )

        if self.check_phi and cls_before is ConfigClass.ASYMMETRIC:
            if cls_after is ConfigClass.ASYMMETRIC and after != before:
                phi_b, phi_a = phi(before), phi(after)
                # Progress claim C2: mult must not decrease; on a mult
                # tie the distance sum must not increase (within the
                # per-robot arithmetic noise of the distance sums).
                if phi_a[0] < phi_b[0] or (
                    phi_a[0] == phi_b[0] and phi_a[1] < phi_b[1] - 1e-6
                ):
                    raise InvariantViolation(
                        f"phi regressed in A: {phi_b} -> {phi_a}"
                    )

        if self.check_safe and cls_before is ConfigClass.ASYMMETRIC:
            check_safe_point_preserved(record)


def verify_trace(
    trace, monitor: Optional[InvariantMonitor] = None
) -> InvariantMonitor:
    """Run the invariant suite over an archived trace, offline.

    No re-simulation happens: every record already carries the before
    and after configurations (rebuilt with the recorded tolerance by
    ``Trace.from_json``), so the proof obligations are checked exactly
    as the engine observer would have checked them live.  Raises
    :class:`InvariantViolation` on the first failing round; returns the
    monitor (``rounds_checked`` tells how much evidence was examined).

    The obligations are those of ``WAIT-FREE-GATHER`` — running this
    over a baseline algorithm's trace is expected to report violations.
    """
    monitor = monitor if monitor is not None else InvariantMonitor()
    for record in trace:
        monitor(record)
    return monitor
