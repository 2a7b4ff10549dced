"""The QAOA ansatz (Farhi, Goldstone, Gutmann 2014).

For a diagonal cost Hamiltonian ``C`` and ``p`` layers, the circuit is

    |psi(beta, gamma)> = prod_{l=1..p} U_B(beta_l) U_P(gamma_l) H^{(x)n} |0>,

with the phase separator ``U_P(gamma) = exp(-i gamma C)`` and the
transverse-field mixer ``U_B(beta) = exp(-i beta sum_i X_i)``, i.e.
``RX(2 beta)`` on every qubit.

Two execution paths are provided:

- :meth:`QaoaAnsatz.circuit` emits an explicit gate circuit (H + RZZ/RZ
  + RX), whose gate counts set the analytic depolarizing contraction;
- the expectation fast path exploits that ``U_P`` is an elementwise
  phase multiply on the statevector, making a full dense landscape grid
  (Table 1: 5k-32k points) tractable on one CPU core.

The fast path comes in scalar and batched flavours:
:meth:`QaoaAnsatz.expectation_many` stacks many ``(beta, gamma)``
bindings along a leading axis of a
:class:`~repro.quantum.batched.BatchedStatevector` — the cost layer is
one broadcast ``exp(-1j * gamma[:, None] * cost_diagonal)`` multiply and
the mixer one contraction with a per-row RX stack — which is what makes
batched landscape generation an order of magnitude faster than the
point-at-a-time loop.

Parameter vector layout is ``[beta_1..beta_p, gamma_1..gamma_p]``,
matching the paper's ``(beta, gamma)`` axis order for p=1 landscapes.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..problems.ising import IsingProblem
from ..quantum.batched import BatchedStatevector
from ..quantum.circuit import QuantumCircuit
from ..quantum.gates import rx as rx_matrix
from ..quantum.noise import NoiseModel, global_depolarizing_factor
from ..quantum.statevector import Statevector
from ..utils import ensure_rng
from .base import Ansatz

__all__ = ["QaoaAnsatz"]


class QaoaAnsatz(Ansatz):
    """Depth-``p`` QAOA for a diagonal Ising cost Hamiltonian."""

    #: Noisy rows use the analytic global-depolarizing contraction (no
    #: density matrices), so noise never shrinks the batch capacity.
    noisy_engine = "contraction"

    def __init__(self, problem: IsingProblem, p: int = 1):
        if p < 1:
            raise ValueError("QAOA depth p must be >= 1")
        self.problem = problem
        self.p = int(p)
        self.num_qubits = problem.num_qubits
        self.num_parameters = 2 * self.p
        self._cost_diagonal = problem.cost_diagonal()
        # Mean cost of the traceless part: depolarizing noise pulls the
        # landscape toward this value, not toward zero.
        self._cost_mean = float(np.mean(self._cost_diagonal))
        # The depolarizing contraction depends only on gate counts (the
        # circuit structure is parameter-independent), so it is cached
        # per noise model instead of rebuilt at every grid point.
        self._noise_factors: dict[NoiseModel, float] = {}
        # Lazy lookup tables for the batched fast path (built on first
        # expectation_many call): basis-state popcounts for the mixer
        # phases, and a compressed cost table when the cost diagonal
        # takes few distinct values (integer-weight MaxCut et al.).
        self._popcount: np.ndarray | None = None
        self._cost_table: tuple[np.ndarray, np.ndarray] | None = None

    # -- circuit path -----------------------------------------------------

    def circuit(self, parameters: Sequence[float]) -> QuantumCircuit:
        """Explicit gate circuit: H layer, then p x (cost, mixer)."""
        values = self._validate(parameters)
        betas, gammas = values[: self.p], values[self.p :]
        qc = QuantumCircuit(self.num_qubits, name=f"qaoa-p{self.p}")
        for qubit in range(self.num_qubits):
            qc.h(qubit)
        for beta, gamma in zip(betas, gammas):
            for i, j, weight in self.problem.couplings:
                qc.rzz(2.0 * gamma * weight, i, j)
            for i, strength in self.problem.fields:
                qc.rz(2.0 * gamma * strength, i)
            for qubit in range(self.num_qubits):
                qc.rx(2.0 * beta, qubit)
        return qc

    # -- fast path ----------------------------------------------------------

    def statevector(self, parameters: Sequence[float]) -> Statevector:
        """Exact output state via the diagonal-phase fast path."""
        values = self._validate(parameters)
        betas, gammas = values[: self.p], values[self.p :]
        n = self.num_qubits
        dim = 1 << n
        state = Statevector(n, np.full(dim, 1.0 / math.sqrt(dim), dtype=complex))
        for beta, gamma in zip(betas, gammas):
            state.apply_diagonal(np.exp(-1j * gamma * self._cost_diagonal))
            mixer = rx_matrix(2.0 * beta)
            for qubit in range(n):
                state.apply_one_qubit(mixer, qubit)
        return state

    def expectation(
        self,
        parameters: Sequence[float],
        noise: NoiseModel | None = None,
        shots: int | None = None,
        rng: np.random.Generator | None = None,
    ) -> float:
        """Expected cost ``<C>`` at the given angles.

        Ideal, exact requests use the fast path.  Noisy requests use the
        analytic global-depolarizing contraction of the traceless cost
        (calibrated on the explicit gate circuit) — the regime the
        paper's Fig. 4(b)/(d) experiments probe — with optional shot
        noise layered on top.  For exact per-gate noisy simulation use
        :func:`repro.quantum.density.simulate_density`.
        """
        state = self.statevector(parameters)
        exact = state.expectation_diagonal(self._cost_diagonal)
        factor = 1.0
        if noise is not None and not noise.is_ideal:
            factor = self._contraction_factor(noise)
            exact = self._cost_mean + factor * (exact - self._cost_mean)
        if shots is None:
            return exact
        rng = ensure_rng(rng)
        # Shot noise of the (possibly contracted) estimator: sample the
        # ideal distribution, rescale the traceless part to match.
        sampled = state.sample_expectation_diagonal(self._cost_diagonal, shots, rng)
        if noise is not None and not noise.is_ideal:
            sampled = self._cost_mean + factor * (sampled - self._cost_mean)
        return sampled

    def _contraction_factor(self, noise: NoiseModel) -> float:
        """Noisy contraction of the traceless cost, cached per model.

        ``global_depolarizing_factor`` depends only on the circuit's
        gate counts, and the QAOA circuit structure (H layer + per-layer
        RZZ/RZ/RX) is the same at every parameter point, so the factor
        is computed once per (ansatz, noise) pair instead of rebuilding
        the full gate circuit at every grid point.  Symmetric readout
        flips with probability r scale every 2-local ZZ term of the
        cost by (1 - 2r)^2 (and 1-local Z terms by (1 - 2r); couplings
        dominate QAOA costs).
        """
        factor = self._noise_factors.get(noise)
        if factor is None:
            circuit = self.circuit(np.zeros(self.num_parameters))
            factor = global_depolarizing_factor(circuit, noise)
            factor *= (1.0 - 2.0 * noise.readout) ** 2
            self._noise_factors[noise] = factor
        return factor

    # -- batched fast path --------------------------------------------------

    def statevector_many(
        self, parameters_batch: Sequence[Sequence[float]] | np.ndarray
    ) -> BatchedStatevector:
        """Exact output states for a parameter batch, one vectorized pass.

        Mirrors :meth:`statevector` with a leading batch axis.  Each
        cost layer is one broadcast
        ``exp(-1j * gamma[:, None] * cost_diagonal)`` multiply over the
        ``(B, 2**n)`` stack.  Each mixer layer uses the diagonalization
        ``RX(2b)^n = H^n · exp(-1j b (n - 2 popcount)) · H^n``: two
        shared Walsh-Hadamard transforms around one per-row phase lookup
        (only ``n + 1`` distinct phases per row), which keeps the whole
        layer in elementwise array operations.
        """
        batch = self._validate_batch(parameters_batch)
        betas, gammas = batch[:, : self.p], batch[:, self.p :]
        n = self.num_qubits
        dim = 1 << n
        self._build_fast_path_tables()
        state = BatchedStatevector.uniform_superposition(n, batch.shape[0])
        levels = np.arange(n + 1)
        for layer in range(self.p):
            state.apply_diagonal(self._cost_phases(gammas[:, layer]))
            # Mixer eigenvalues in the X basis: sum_i X_i has eigenvalue
            # n - 2*popcount(z) on the Hadamard-transformed basis state
            # z; the 2**-n of the two unnormalized transforms is folded
            # into the phase table.
            table = np.exp(-1j * betas[:, layer, None] * (n - 2 * levels)) / dim
            state.apply_hadamard_all(scale=1.0)
            state.apply_diagonal(table[:, self._popcount])
            state.apply_hadamard_all(scale=1.0)
        return state

    def _build_fast_path_tables(self) -> None:
        """Build the cached lookup tables for :meth:`statevector_many`."""
        if self._popcount is not None:
            return
        dim = 1 << self.num_qubits
        basis = np.arange(dim, dtype=np.uint64)
        popcount = np.zeros(dim, dtype=np.intp)
        while basis.any():
            popcount += (basis & 1).astype(np.intp)
            basis >>= 1
        self._popcount = popcount
        unique, inverse = np.unique(self._cost_diagonal, return_inverse=True)
        # Compress the cost-phase exponential when the diagonal takes
        # few distinct values (integer-weight MaxCut has O(edges) cut
        # values): exp() over (B, unique) then a cheap gather.
        if unique.shape[0] * 4 <= dim:
            self._cost_table = (unique, inverse.reshape(-1))
        else:
            self._cost_table = (np.empty(0), np.empty(0, dtype=np.intp))

    def _cost_phases(self, gammas: np.ndarray) -> np.ndarray:
        """``(B, 2**n)`` cost-layer phases ``exp(-1j g_b c_z)``."""
        unique, inverse = self._cost_table
        if unique.shape[0]:
            return np.exp(-1j * gammas[:, None] * unique[None, :])[:, inverse]
        return np.exp(-1j * gammas[:, None] * self._cost_diagonal[None, :])

    def _contraction_factors(
        self, noise_rows: list[NoiseModel | None]
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Per-row ``(factors, noisy_mask)``, or ``None`` if all ideal.

        Ideal rows keep factor 1.0 and a ``False`` mask entry; each
        distinct noisy model hits the per-(ansatz, noise) cache once.
        """
        mask = self._noisy_mask(noise_rows)
        if not mask.any():
            return None
        factors = np.array(
            [
                self._contraction_factor(model) if noisy else 1.0
                for model, noisy in zip(noise_rows, mask)
            ]
        )
        return factors, mask

    def _contract(
        self, values: np.ndarray, factors: np.ndarray, mask: np.ndarray
    ) -> np.ndarray:
        """Contract the noisy rows, leaving ideal rows bit-identical.

        ``mean + 1.0 * (x - mean)`` is not exactly ``x`` in floating
        point, so ideal rows are skipped rather than scaled by 1.0 — a
        serial loop never touches them either.
        """
        values = values.copy()
        values[mask] = self._cost_mean + factors[mask] * (
            values[mask] - self._cost_mean
        )
        return values

    def expectation_many(
        self,
        parameters_batch: Sequence[Sequence[float]] | np.ndarray,
        noise: NoiseModel | Sequence[NoiseModel | None] | None = None,
        shots: int | None = None,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Vectorized :meth:`expectation` over a parameter batch.

        Semantics match a serial loop of :meth:`expectation` row by
        row: the same diagonal fast path, the same cached depolarizing
        contraction, and — for ``shots`` requests — the same per-row
        rng draw order.  ``noise`` may vary per row (a length-``B``
        sequence), in which case the analytic contraction is applied
        with a per-row factor — the path batched ZNE rides.
        """
        batch = self._validate_batch(parameters_batch)
        noise_rows = self._resolve_noise(noise, batch.shape[0])
        state = self.statevector_many(batch)
        exact = state.expectation_diagonal(self._cost_diagonal)
        contraction = self._contraction_factors(noise_rows)
        if contraction is not None:
            exact = self._contract(exact, *contraction)
        if shots is None:
            return exact
        rng = ensure_rng(rng)
        sampled = state.sample_expectation_diagonal(self._cost_diagonal, shots, rng)
        if contraction is not None:
            sampled = self._contract(sampled, *contraction)
        return sampled

    def expectation_many_scaled(
        self,
        parameters_batch: Sequence[Sequence[float]] | np.ndarray,
        noise_models: Sequence[NoiseModel | None],
        shots: int | None,
        rng: np.random.Generator | None,
    ) -> np.ndarray:
        """``(B, S)`` noisy expectations with one simulation per point.

        The ZNE fast path: on the analytic-contraction engine the ideal
        statevector is *noise-scale independent*, so instead of folding
        the ``S`` scale factors into the batch axis (re-simulating every
        point once per scale), each point is simulated once and its
        exact value / measurement distribution is reused across all
        scale models — only the cheap per-scale contraction (and, with
        ``shots``, the per-(point, scale) sampling) remains.

        Semantics match a serial per-(point, scale) loop of
        :meth:`expectation` in point-major / scale-minor order, rng
        draws included.
        """
        batch = self._validate_batch(parameters_batch)
        models = list(noise_models)
        for model in models:
            if model is not None and not isinstance(model, NoiseModel):
                raise TypeError(
                    f"noise_models entries must be NoiseModel or None, "
                    f"got {type(model).__name__}"
                )
        num_points, num_scales = batch.shape[0], len(models)
        if num_scales == 0:
            return np.empty((num_points, 0))
        state = self.statevector_many(batch)
        noisy = np.array(
            [model is not None and not model.is_ideal for model in models],
            dtype=bool,
        )
        factors = np.array(
            [
                self._contraction_factor(model) if flagged else 1.0
                for model, flagged in zip(models, noisy)
            ]
        )
        if shots is None:
            exact = state.expectation_diagonal(self._cost_diagonal)
            values = np.repeat(exact[:, None], num_scales, axis=1)
        else:
            rng = ensure_rng(rng)
            # Sample per (point, scale) from the shared per-point state,
            # in exactly the serial loop's order.
            values = np.empty((num_points, num_scales))
            for index in range(num_points):
                row = state.row(index)
                for scale in range(num_scales):
                    values[index, scale] = row.sample_expectation_diagonal(
                        self._cost_diagonal, shots, rng
                    )
        # Contract noisy columns; ideal columns stay bit-identical (the
        # serial loop never scales them either).
        values[:, noisy] = self._cost_mean + factors[noisy][None, :] * (
            values[:, noisy] - self._cost_mean
        )
        return values

    @property
    def cost_diagonal(self) -> np.ndarray:
        """The problem's diagonal cost vector (read-only copy)."""
        return self._cost_diagonal.copy()

    def cache_spec(self) -> dict:
        """Canonical content description for the landscape store.

        The problem is described by its full coupling/field content
        (what the cost diagonal derives from), not its display name, so
        two identically-wired instances share a cache key regardless of
        labelling.
        """
        return {
            "type": "qaoa",
            "p": self.p,
            "num_qubits": self.num_qubits,
            "problem": {
                "couplings": [
                    [int(i), int(j), float(w)]
                    for i, j, w in self.problem.couplings
                ],
                "fields": [
                    [int(i), float(h)] for i, h in self.problem.fields
                ],
                "offset": float(self.problem.offset),
            },
        }

    def parameter_names(self) -> list[str]:
        return [f"beta_{l}" for l in range(self.p)] + [
            f"gamma_{l}" for l in range(self.p)
        ]
