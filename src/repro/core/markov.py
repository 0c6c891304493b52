"""The 3-state Markov availability model (paper Section 5).

Each volatile processor :math:`P_q` is described by a recurrent aperiodic
Markov chain over the states UP, RECLAIMED, DOWN, defined by the nine
transition probabilities :math:`P^{(q)}_{i,j}` with
:math:`i, j \\in \\{u, r, d\\}`:  :math:`P^{(q)}_{i,j}` is the probability
that the processor moves from state *i* at slot *t* to state *j* at slot
*t+1* (time-homogeneous).  The chain has a limit distribution
:math:`(\\pi_u, \\pi_r, \\pi_d)` which several heuristics use as a
reliability signal (``Random3``, ``Random4``, ``UD``).

This module provides:

* :class:`MarkovAvailabilityModel` — validated transition matrix, stationary
  distribution, single-step and whole-trace sampling;
* :func:`paper_random_model` — the exact random instantiation used by the
  paper's evaluation (Section 7): each self-loop probability
  :math:`P_{x,x}` drawn uniformly in ``[0.90, 0.99]`` and the two outgoing
  probabilities set to :math:`(1 - P_{x,x})/2` each.

Trace sampling is vectorised over time via inverse-CDF lookups on a
pre-computed cumulative transition matrix, so generating the long traces
needed by the experiment harness stays cheap in pure Python/numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from .._validation import require_positive_int
from ..types import ProcState

__all__ = [
    "MarkovAvailabilityModel",
    "paper_random_model",
    "stationary_distribution",
]

_STATES = (ProcState.UP, ProcState.RECLAIMED, ProcState.DOWN)


def stationary_distribution(matrix: np.ndarray) -> np.ndarray:
    """The stationary distribution of a row-stochastic matrix.

    Solves :math:`\\pi M = \\pi` with :math:`\\sum_i \\pi_i = 1` via the
    standard replace-one-equation linear system.  For the recurrent aperiodic
    chains the paper assumes, the solution is unique and strictly positive.

    Args:
        matrix: an ``(n, n)`` row-stochastic matrix.

    Returns:
        A length-``n`` probability vector.

    Raises:
        ValueError: if the matrix is not square/stochastic or the chain is
            reducible in a way that leaves the system singular.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"transition matrix must be square, got shape {matrix.shape}")
    n = matrix.shape[0]
    if np.any(matrix < -1e-12) or np.any(matrix > 1 + 1e-12):
        raise ValueError("transition probabilities must lie in [0, 1]")
    row_sums = matrix.sum(axis=1)
    if not np.allclose(row_sums, 1.0, atol=1e-9):
        raise ValueError(f"transition matrix rows must sum to 1, got sums {row_sums}")
    # pi (M - I) = 0  plus normalisation; transpose to a standard Ax = b.
    a = (matrix.T - np.eye(n)).copy()
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            "stationary distribution is not unique (chain appears reducible)"
        ) from exc
    if np.any(pi < -1e-9):
        raise ValueError("stationary distribution has negative entries; chain invalid")
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def _checked_chain_stack(stack: np.ndarray) -> np.ndarray:
    """Validate, clip and row-normalise a ``(p, 3, 3)`` stack of chains.

    The one validator behind :class:`MarkovAvailabilityModel`: the
    constructor passes a one-matrix stack, :meth:`~MarkovAvailabilityModel.
    from_self_loop_stack` a whole scenario's.  Errors on a multi-chain
    stack name the first offending chain.  Returns a new read-only array.
    """

    def where(bad: np.ndarray) -> str:
        return f" (chain {int(np.argmax(bad))})" if len(stack) > 1 else ""

    out_of_range = ((stack < -1e-12) | (stack > 1 + 1e-12)).any(axis=(1, 2))
    if out_of_range.any():
        raise ValueError(
            "transition probabilities must lie in [0, 1]" + where(out_of_range)
        )
    sums = stack.sum(axis=2)
    unbalanced = ~np.isclose(sums, 1.0, atol=1e-9).all(axis=1)
    if unbalanced.any():
        q = int(np.argmax(unbalanced))
        raise ValueError(
            f"transition matrix rows must sum to 1, got {sums[q]}"
            + where(unbalanced)
        )
    m = np.clip(stack, 0.0, 1.0)
    m = m / m.sum(axis=2, keepdims=True)
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class MarkovAvailabilityModel:
    """A single processor's 3-state availability chain.

    The transition matrix is indexed by :class:`~repro.types.ProcState`
    (UP = 0, RECLAIMED = 1, DOWN = 2), i.e. ``matrix[0, 1]`` is
    :math:`P_{u,r}`.

    Attributes:
        matrix: the ``(3, 3)`` row-stochastic transition matrix.

    The constructor validates stochasticity; derived quantities (stationary
    distribution, cumulative rows for sampling) are computed lazily and
    cached — the object is otherwise immutable so it can be shared freely
    between heuristics and the trace generator.
    """

    matrix: np.ndarray
    _pi: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    _cum: np.ndarray = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (3, 3):
            raise ValueError(f"availability matrix must be 3x3, got shape {m.shape}")
        self._adopt(_checked_chain_stack(m[None])[0])

    def _adopt(self, row: np.ndarray) -> None:
        """Install an already validated, read-only ``(3, 3)`` matrix."""
        object.__setattr__(self, "matrix", row)
        object.__setattr__(self, "_pi", None)
        object.__setattr__(self, "_cum", None)

    # ------------------------------------------------------------------ #
    # Named accessors mirroring the paper's notation.                     #
    # ------------------------------------------------------------------ #
    def p(self, src: ProcState, dst: ProcState) -> float:
        """Transition probability :math:`P_{src,dst}`."""
        return float(self.matrix[int(src), int(dst)])

    @property
    def p_uu(self) -> float:
        """:math:`P_{u,u}` — probability of remaining UP."""
        return float(self.matrix[0, 0])

    @property
    def p_ur(self) -> float:
        """:math:`P_{u,r}` — UP → RECLAIMED."""
        return float(self.matrix[0, 1])

    @property
    def p_ud(self) -> float:
        """:math:`P_{u,d}` — UP → DOWN."""
        return float(self.matrix[0, 2])

    @property
    def p_ru(self) -> float:
        """:math:`P_{r,u}` — RECLAIMED → UP."""
        return float(self.matrix[1, 0])

    @property
    def p_rr(self) -> float:
        """:math:`P_{r,r}` — probability of remaining RECLAIMED."""
        return float(self.matrix[1, 1])

    @property
    def p_rd(self) -> float:
        """:math:`P_{r,d}` — RECLAIMED → DOWN."""
        return float(self.matrix[1, 2])

    @property
    def p_du(self) -> float:
        """:math:`P_{d,u}` — DOWN → UP (repair)."""
        return float(self.matrix[2, 0])

    @property
    def p_dr(self) -> float:
        """:math:`P_{d,r}` — DOWN → RECLAIMED."""
        return float(self.matrix[2, 1])

    @property
    def p_dd(self) -> float:
        """:math:`P_{d,d}` — probability of remaining DOWN."""
        return float(self.matrix[2, 2])

    # ------------------------------------------------------------------ #
    # Derived quantities.                                                  #
    # ------------------------------------------------------------------ #
    @property
    def stationary(self) -> np.ndarray:
        """The limit distribution :math:`(\\pi_u, \\pi_r, \\pi_d)`."""
        if self._pi is None:
            pi = stationary_distribution(self.matrix)
            pi.setflags(write=False)
            object.__setattr__(self, "_pi", pi)
        return self._pi

    @property
    def pi_u(self) -> float:
        """Steady-state fraction of time UP."""
        return float(self.stationary[0])

    @property
    def pi_r(self) -> float:
        """Steady-state fraction of time RECLAIMED."""
        return float(self.stationary[1])

    @property
    def pi_d(self) -> float:
        """Steady-state fraction of time DOWN."""
        return float(self.stationary[2])

    def mean_sojourn(self, state: ProcState) -> float:
        """Expected consecutive slots spent in ``state`` per visit.

        A geometric sojourn with continuation probability :math:`P_{x,x}`
        has mean :math:`1 / (1 - P_{x,x})` (``inf`` for absorbing states).
        This is the quantity that bounds the span-stepped simulator's
        skip-ahead distance (DESIGN.md §6): between visits nothing about a
        processor's availability changes, so the paper's ``[0.90, 0.99]``
        self-loops yield mean sojourns of 10–100 slots.
        """
        p_stay = float(self.matrix[int(state), int(state)])
        if p_stay >= 1.0:
            return float("inf")
        return 1.0 / (1.0 - p_stay)

    @property
    def _cumulative(self) -> np.ndarray:
        if self._cum is None:
            cum = np.cumsum(self.matrix, axis=1)
            cum[:, -1] = 1.0  # guard against rounding
            cum.setflags(write=False)
            object.__setattr__(self, "_cum", cum)
        return self._cum

    # ------------------------------------------------------------------ #
    # Sampling.                                                            #
    # ------------------------------------------------------------------ #
    def step(self, state: int, rng: np.random.Generator) -> int:
        """Sample the next state from ``state``."""
        u = rng.random()
        row = self._cumulative[int(state)]
        return int(np.searchsorted(row, u, side="right"))

    def sample_trace(
        self,
        length: int,
        rng: np.random.Generator,
        initial: Optional[int] = None,
    ) -> np.ndarray:
        """Sample an availability trace of ``length`` slots.

        Args:
            length: number of slots to generate.
            rng: the generator to draw from.
            initial: state at slot 0.  ``None`` samples the initial state
                from the stationary distribution, which is what the
                experiment harness uses so that runs start "mid-life" rather
                than artificially all-UP.

        Returns:
            A ``uint8`` array of :class:`~repro.types.ProcState` values.
        """
        length = require_positive_int(length, "length")
        trace = np.empty(length, dtype=np.uint8)
        if initial is None:
            initial = int(
                np.searchsorted(np.cumsum(self.stationary), rng.random(), side="right")
            )
        if initial not in (0, 1, 2):
            raise ValueError(f"initial state must be 0, 1 or 2, got {initial}")
        trace[0] = initial
        if length == 1:
            return trace
        self._walk_from_uniforms(trace, rng.random(length - 1), initial)
        return trace

    def _walk_from_uniforms(
        self, trace: np.ndarray, uniforms: np.ndarray, initial: int
    ) -> None:
        """Fill ``trace[1:]`` by the vectorised inverse-CDF walk.

        All uniforms are pre-drawn in one batch (identical stream to
        per-slot draws), then the chain is walked *run by run*:
        ``nxt[s][k]`` is the state slot ``k+1`` would enter if slot ``k``
        were in state ``s`` (the same two-threshold comparison the scalar
        loop made), and ``changes[s]`` the slots where that differs from
        ``s`` — so each sojourn costs one binary search plus one slice
        fill instead of a Python iteration per slot.
        """
        length = len(trace)
        cum = self._cumulative
        nxt = []
        changes = []
        for s in range(3):
            row = cum[s]
            nxt_s = (uniforms >= row[0]).view(np.uint8) + (
                uniforms >= row[1]
            ).view(np.uint8)
            nxt.append(nxt_s)
            changes.append(np.nonzero(nxt_s != s)[0])
        t = 0  # trace filled through index t
        state = int(initial)
        last = length - 1
        while t < last:
            jumps = changes[state]
            pos = int(np.searchsorted(jumps, t, side="left"))
            if pos == len(jumps):
                trace[t + 1 :] = state
                break
            j = int(jumps[pos])  # uniforms[j] leaves ``state``
            trace[t + 1 : j + 1] = state
            state = int(nxt[state][j])
            trace[j + 1] = state
            t = j + 1

    def continue_trace(
        self, last_state: int, extra: int, rng: np.random.Generator
    ) -> np.ndarray:
        """The next ``extra`` slots after a trace ending in ``last_state``.

        The draw protocol — sample ``extra + 1`` slots seeded with the
        last state, drop the seed slot — is the single place the
        continuation rule lives; :meth:`extend_trace` and the RLE
        :class:`~repro.sim.availability.MarkovSource` both build on it,
        so their draw streams can never diverge.
        """
        extra = require_positive_int(extra, "extra")
        return self.sample_trace(extra + 1, rng, initial=int(last_state))[1:]

    def extend_trace(
        self, trace: np.ndarray, extra: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Append ``extra`` freshly sampled slots to an existing trace."""
        tail = self.continue_trace(int(trace[-1]), extra, rng)
        return np.concatenate([trace, tail])

    # ------------------------------------------------------------------ #
    # Construction helpers.                                                #
    # ------------------------------------------------------------------ #
    @classmethod
    def from_probabilities(
        cls,
        *,
        p_uu: float,
        p_ur: float,
        p_ud: float,
        p_ru: float,
        p_rr: float,
        p_rd: float,
        p_du: float,
        p_dr: float,
        p_dd: float,
    ) -> "MarkovAvailabilityModel":
        """Build a model from the nine named probabilities of the paper."""
        return cls(
            np.array(
                [
                    [p_uu, p_ur, p_ud],
                    [p_ru, p_rr, p_rd],
                    [p_du, p_dr, p_dd],
                ]
            )
        )

    @classmethod
    def from_self_loops(
        cls, p_uu: float, p_rr: float, p_dd: float
    ) -> "MarkovAvailabilityModel":
        """The paper's symmetric construction (Section 7).

        Sets :math:`P_{x,y} = (1 - P_{x,x}) / 2` for each :math:`y \\ne x`.
        The one-row call of :meth:`from_self_loop_stack`.
        """
        return cls.from_self_loop_stack([[p_uu, p_rr, p_dd]])[0]

    @classmethod
    def from_self_loop_stack(
        cls, self_loops: np.ndarray
    ) -> Tuple["MarkovAvailabilityModel", ...]:
        """:meth:`from_self_loops` for ``p`` chains in one pass.

        The ``(p, 3, 3)`` stack is built, validated, clipped and
        row-normalised once, with the constructor's tolerances and
        messages; model ``q`` then holds row ``q`` of the one read-only
        result.  The arithmetic is the scalar construction's, so every
        matrix is byte-identical to a lone call's — at ``p = 10,000``
        this replaces ten thousand per-matrix validations, which
        dominated large-grid scenario generation (DESIGN.md §12).

        Args:
            self_loops: a ``(p, 3)`` array; row ``q`` holds chain ``q``'s
                :math:`(P_{u,u}, P_{r,r}, P_{d,d})`.
        """
        loops = np.asarray(self_loops, dtype=float)
        if loops.ndim != 2 or loops.shape[1] != 3:
            raise ValueError(
                f"self-loop stack must have shape (p, 3), got {loops.shape}"
            )
        stack = np.repeat(0.5 * (1.0 - loops)[:, :, None], 3, axis=2)
        diagonal = np.arange(3)
        stack[:, diagonal, diagonal] = loops
        models = []
        for row in _checked_chain_stack(stack):
            model = cls.__new__(cls)
            model._adopt(row)
            models.append(model)
        return tuple(models)


def paper_random_model(rng: np.random.Generator) -> MarkovAvailabilityModel:
    """Sample one processor's chain exactly as in the paper's evaluation.

    Section 7: *"We uniformly pick a random value between 0.90 and 0.99 for
    each* :math:`P^{(q)}_{x,x}` *value (for x = u, r, d).  We then set*
    :math:`P^{(q)}_{x,y} = 0.5 (1 - P^{(q)}_{x,x})` *for* :math:`x \\ne y`."
    """
    p_uu, p_rr, p_dd = rng.uniform(0.90, 0.99, size=3)
    return MarkovAvailabilityModel.from_self_loops(p_uu, p_rr, p_dd)


def empirical_state_frequencies(trace: Sequence[int]) -> np.ndarray:
    """Fraction of slots spent in each state — used by validation tests."""
    trace = np.asarray(trace)
    counts = np.bincount(trace.astype(np.int64), minlength=3)[:3]
    total = counts.sum()
    if total == 0:
        raise ValueError("trace is empty")
    return counts / total
