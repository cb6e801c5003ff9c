"""Pluggable branch-direction predictors.

The paper's characterisation (§III) pins BioPerf's mispredictions on
value-dependent ``max`` branches that defeat *any* history-based
scheme. This module makes that claim testable: a common
:class:`DirectionPredictor` interface, a registry keyed by
:class:`~repro.uarch.config.PredictorSpec` kind names, and the family
of schemes the branch-prediction literature would reach for first:

=============  ======================================================
kind           scheme
=============  ======================================================
``taken``      static predict-taken (no state)
``not_taken``  static predict-not-taken (no state)
``bimodal``    PC-indexed 2-bit saturating counters
``gshare``     2-bit counters indexed by PC xor global history
``local``      two-level: per-PC history selecting a pattern table
``tournament`` bimodal + gshare with a 2-bit chooser (Alpha 21264)
``perceptron`` hashed perceptrons over global history (Jiménez & Lin)
=============  ======================================================

``gshare`` and ``bimodal`` are the historical residents of
:mod:`repro.uarch.branch_predictor`, re-registered here behind the
interface; the timing engine's frontend pass still inlines the
default gshare, and the golden-equality suite pins every other kind's
route through it to the object reference path.

Every implementation keeps the same statistics contract —
``predictions`` / ``mispredictions`` counters, a ``misprediction_rate``
property, and ``reset_stats()`` for SMARTS-style warm-up — so a
:class:`~repro.uarch.core.Core` or the replay harness can swap schemes
freely.
"""

from __future__ import annotations

from typing import Callable, Protocol, runtime_checkable

from repro.errors import SimulationError
from repro.uarch.branch_predictor import BimodalPredictor, GsharePredictor
from repro.uarch.config import (
    PREDICTOR_KINDS,
    PredictorConfig,
    PredictorSpec,
)


@runtime_checkable
class DirectionPredictor(Protocol):
    """What the core model and the replay harness require of a scheme."""

    predictions: int
    mispredictions: int

    def predict(self, pc: int) -> bool:
        """Predicted direction for the branch at ``pc``."""

    def update(self, pc: int, taken: bool) -> bool:
        """Record the outcome; returns True when it was mispredicted."""

    def reset_stats(self) -> None:
        """Clear counters but keep the learned state (for warm-up)."""


class _StatsBase:
    """Shared statistics contract of the predictors defined here."""

    def __init__(self) -> None:
        self.predictions = 0
        self.mispredictions = 0

    @property
    def misprediction_rate(self) -> float:
        if self.predictions == 0:
            return 0.0
        return self.mispredictions / self.predictions

    def reset_stats(self) -> None:
        self.predictions = 0
        self.mispredictions = 0

    def _record(self, mispredicted: bool) -> bool:
        self.predictions += 1
        if mispredicted:
            self.mispredictions += 1
        return mispredicted


class StaticPredictor(_StatsBase):
    """Predict a fixed direction for every branch (no learned state)."""

    def __init__(self, taken: bool) -> None:
        super().__init__()
        self._taken = bool(taken)

    def predict(self, pc: int) -> bool:
        return self._taken

    def update(self, pc: int, taken: bool) -> bool:
        return self._record(self._taken != bool(taken))


class TwoLevelLocalPredictor(_StatsBase):
    """Two-level local predictor (Yeh & Patt PAg).

    The first level keeps a per-PC history of the branch's own last
    ``history_bits`` outcomes; the second level is a shared pattern
    table of 2-bit counters indexed by that history. Captures periodic
    per-branch patterns (loop trip counts) that global history misses —
    and still fails on the value-dependent DP branches, which carry no
    pattern at all.
    """

    def __init__(self, table_bits: int, history_bits: int) -> None:
        super().__init__()
        if table_bits < 1 or history_bits < 0:
            raise SimulationError("bad local-predictor geometry")
        self._pc_mask = (1 << table_bits) - 1
        self._history_mask = (1 << history_bits) - 1
        self._histories = [0] * (1 << table_bits)
        self._pattern = [1] * (1 << history_bits)  # weakly not-taken

    def predict(self, pc: int) -> bool:
        history = self._histories[pc & self._pc_mask]
        return self._pattern[history] >= 2

    def update(self, pc: int, taken: bool) -> bool:
        slot = pc & self._pc_mask
        history = self._histories[slot]
        counter = self._pattern[history]
        if taken:
            if counter < 3:
                self._pattern[history] = counter + 1
            self._histories[slot] = ((history << 1) | 1) & self._history_mask
        else:
            if counter > 0:
                self._pattern[history] = counter - 1
            self._histories[slot] = (history << 1) & self._history_mask
        return self._record((counter >= 2) != bool(taken))


class TournamentPredictor(_StatsBase):
    """Bimodal + gshare with a per-PC 2-bit chooser (21264-style).

    The chooser trains toward whichever component was right when they
    disagree; both components always train on the outcome.
    """

    def __init__(self, table_bits: int, history_bits: int) -> None:
        super().__init__()
        self._bimodal = BimodalPredictor(table_bits)
        self._gshare = GsharePredictor(
            PredictorConfig(table_bits=table_bits, history_bits=history_bits)
        )
        self._chooser = [2] * (1 << table_bits)  # weakly prefer gshare
        self._pc_mask = (1 << table_bits) - 1

    def predict(self, pc: int) -> bool:
        if self._chooser[pc & self._pc_mask] >= 2:
            return self._gshare.predict(pc)
        return self._bimodal.predict(pc)

    def update(self, pc: int, taken: bool) -> bool:
        bimodal_prediction = self._bimodal.predict(pc)
        gshare_prediction = self._gshare.predict(pc)
        slot = pc & self._pc_mask
        chosen = (
            gshare_prediction
            if self._chooser[slot] >= 2
            else bimodal_prediction
        )
        self._bimodal.update(pc, taken)
        self._gshare.update(pc, taken)
        taken = bool(taken)
        if bimodal_prediction != gshare_prediction:
            if gshare_prediction == taken:
                if self._chooser[slot] < 3:
                    self._chooser[slot] += 1
            elif self._chooser[slot] > 0:
                self._chooser[slot] -= 1
        return self._record(chosen != taken)


#: Perceptron weights saturate at the classic signed-8-bit range.
_WEIGHT_MIN, _WEIGHT_MAX = -128, 127


class PerceptronPredictor(_StatsBase):
    """Hashed perceptron over global history (Jiménez & Lin 2001).

    Each PC hashes to a weight vector (bias + one weight per history
    bit); the prediction is the sign of the dot product with the
    global history (outcomes as +/-1). Training bumps the weights
    toward the outcome whenever the prediction was wrong *or* the
    magnitude was below the threshold. Linearly-separable history
    correlations of any length fit; value-dependent branches do not —
    which is the point of including it in the lab.
    """

    def __init__(
        self, table_bits: int, history_bits: int, threshold: int = 0
    ) -> None:
        super().__init__()
        if table_bits < 1 or history_bits < 0:
            raise SimulationError("bad perceptron geometry")
        self._pc_mask = (1 << table_bits) - 1
        self._history_bits = history_bits
        self._history_mask = (1 << history_bits) - 1
        # 0 selects the classic capacity-matched training threshold.
        self.threshold = threshold or int(1.93 * history_bits + 14)
        self._weights = [
            [0] * (history_bits + 1) for _ in range(1 << table_bits)
        ]
        self._history = 0

    def _output(self, pc: int) -> int:
        weights = self._weights[pc & self._pc_mask]
        total = weights[0]
        history = self._history
        for k in range(1, self._history_bits + 1):
            if (history >> (k - 1)) & 1:
                total += weights[k]
            else:
                total -= weights[k]
        return total

    def predict(self, pc: int) -> bool:
        return self._output(pc) >= 0

    def update(self, pc: int, taken: bool) -> bool:
        taken = bool(taken)
        total = self._output(pc)
        prediction = total >= 0
        if prediction != taken or abs(total) <= self.threshold:
            weights = self._weights[pc & self._pc_mask]
            step = 1 if taken else -1
            value = weights[0] + step
            weights[0] = min(_WEIGHT_MAX, max(_WEIGHT_MIN, value))
            history = self._history
            for k in range(1, self._history_bits + 1):
                agree = step if (history >> (k - 1)) & 1 else -step
                value = weights[k] + agree
                weights[k] = min(_WEIGHT_MAX, max(_WEIGHT_MIN, value))
        self._history = (
            (self._history << 1) | (1 if taken else 0)
        ) & self._history_mask
        return self._record(prediction != taken)


# -- registry ----------------------------------------------------------------

_REGISTRY: dict[str, Callable[[PredictorSpec], DirectionPredictor]] = {}


def register_predictor(kind: str):
    """Class decorator registering a factory for ``kind``.

    The kind must be declared in
    :data:`repro.uarch.config.PREDICTOR_KINDS` — specs validate their
    kind at construction, so an unlisted registration could never be
    reached through a :class:`PredictorSpec`.
    """
    if kind not in PREDICTOR_KINDS:
        raise SimulationError(
            f"kind {kind!r} is not declared in PREDICTOR_KINDS"
        )

    def decorate(factory: Callable[[PredictorSpec], DirectionPredictor]):
        if kind in _REGISTRY:
            raise SimulationError(f"predictor kind {kind!r} registered twice")
        _REGISTRY[kind] = factory
        return factory

    return decorate


def predictor_kinds() -> tuple[str, ...]:
    """Registered kind names, in the declaration order of the spec."""
    return tuple(kind for kind in PREDICTOR_KINDS if kind in _REGISTRY)


def make_predictor(
    spec: PredictorSpec | PredictorConfig | None = None,
) -> DirectionPredictor:
    """Instantiate the predictor a spec describes.

    A legacy :class:`PredictorConfig` (bare gshare geometry) is
    accepted and promoted to a gshare spec.
    """
    if spec is None:
        spec = PredictorSpec()
    elif isinstance(spec, PredictorConfig):
        spec = PredictorSpec(
            kind="gshare",
            table_bits=spec.table_bits,
            history_bits=spec.history_bits,
        )
    factory = _REGISTRY.get(spec.kind)
    if factory is None:
        raise SimulationError(
            f"no predictor registered for kind {spec.kind!r}; "
            f"have {predictor_kinds()}"
        )
    return factory(spec)


register_predictor("taken")(lambda spec: StaticPredictor(True))
register_predictor("not_taken")(lambda spec: StaticPredictor(False))
register_predictor("bimodal")(
    lambda spec: BimodalPredictor(spec.table_bits)
)
register_predictor("gshare")(
    lambda spec: GsharePredictor(spec.gshare_geometry())
)
register_predictor("local")(
    lambda spec: TwoLevelLocalPredictor(spec.table_bits, spec.history_bits)
)
register_predictor("tournament")(
    lambda spec: TournamentPredictor(spec.table_bits, spec.history_bits)
)
register_predictor("perceptron")(
    lambda spec: PerceptronPredictor(
        spec.table_bits, spec.history_bits, spec.threshold
    )
)
