"""Tests for the problem library: Ising, MaxCut, SK, chemistry."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.problems import (
    IsingProblem,
    cut_value,
    h2_hamiltonian,
    lih_hamiltonian,
    maxcut_from_graph,
    mesh_maxcut,
    random_3_regular_maxcut,
    random_regular_graph,
    sk_problem,
)


# -- IsingProblem -----------------------------------------------------------


def test_ising_validation():
    with pytest.raises(ValueError):
        IsingProblem(0, ())
    with pytest.raises(ValueError):
        IsingProblem(2, ((1, 0, 1.0),))  # i must be < j
    with pytest.raises(ValueError):
        IsingProblem(2, ((0, 5, 1.0),))
    with pytest.raises(ValueError):
        IsingProblem(2, (), fields=((7, 1.0),))


def test_from_dicts_normalises_pair_order():
    problem = IsingProblem.from_dicts(3, {(2, 0): 1.5})
    assert problem.couplings == ((0, 2, 1.5),)


def test_from_dicts_rejects_self_coupling():
    with pytest.raises(ValueError):
        IsingProblem.from_dicts(2, {(1, 1): 1.0})


def test_cost_diagonal_matches_pointwise():
    problem = IsingProblem(
        3, ((0, 1, 1.0), (1, 2, -0.5)), fields=((0, 0.25),), offset=0.1
    )
    diagonal = problem.cost_diagonal()
    for index in range(8):
        assert diagonal[index] == pytest.approx(problem.cost_of_bitstring(index))


def test_cost_of_bitstring_label_and_index_agree():
    problem = IsingProblem.from_dicts(2, {(0, 1): 1.0})
    # Label "10": char 0 -> qubit 1 ... int("10",2)=2 -> bit0=0,bit1=1.
    assert problem.cost_of_bitstring("10") == problem.cost_of_bitstring(2)


def test_to_pauli_sum_diagonal_matches_cost():
    problem = IsingProblem(
        3, ((0, 1, -0.4), (0, 2, 0.7)), fields=((2, 0.3),), offset=-0.2
    )
    assert np.allclose(problem.to_pauli_sum().diagonal(), problem.cost_diagonal())


def test_optimal_cost_is_min():
    problem = IsingProblem.from_dicts(3, {(0, 1): 1.0, (1, 2): 1.0})
    assert problem.optimal_cost() == problem.cost_diagonal().min()


@given(seed=st.integers(0, 30))
@settings(max_examples=10, deadline=None)
def test_ising_spin_flip_symmetry(seed):
    """Pure coupling problems are invariant under global spin flip."""
    problem = sk_problem(4, seed=seed)
    diagonal = problem.cost_diagonal()
    flipped = diagonal[::-1]  # index complement = flip all bits
    assert np.allclose(diagonal, flipped)


# -- MaxCut ------------------------------------------------------------------


def test_maxcut_needs_two_nodes():
    with pytest.raises(ValueError):
        maxcut_from_graph(nx.Graph())


def test_maxcut_cost_relates_to_cut_value():
    """cost(z) = W/2 - cut(z) where W is total edge weight."""
    graph = nx.cycle_graph(4)
    problem = maxcut_from_graph(graph)
    total_weight = graph.number_of_edges()
    for index in range(16):
        assignment = {node: (index >> node) & 1 for node in graph.nodes()}
        cut = cut_value(graph, assignment)
        assert problem.cost_of_bitstring(index) == pytest.approx(
            total_weight / 2.0 - cut
        )


def test_maxcut_optimal_on_even_cycle():
    """An even cycle is bipartite: the max cut uses every edge."""
    problem = maxcut_from_graph(nx.cycle_graph(6))
    # cost = W/2 - cut; best cut = 6 edges, W/2 = 3 -> optimal cost -3.
    assert problem.optimal_cost() == pytest.approx(-3.0)


def test_random_regular_graph_degree():
    graph = random_regular_graph(3, 8, seed=0)
    assert all(degree == 3 for _, degree in graph.degree())


def test_random_regular_graph_parity_check():
    with pytest.raises(ValueError):
        random_regular_graph(3, 5, seed=0)


def test_random_3_regular_maxcut_is_seed_deterministic():
    a = random_3_regular_maxcut(8, seed=3)
    b = random_3_regular_maxcut(8, seed=3)
    assert a.couplings == b.couplings


def test_mesh_maxcut_grid_structure():
    problem = mesh_maxcut(2, 3)
    assert problem.num_qubits == 6
    # 2x3 grid has 7 edges.
    assert len(problem.couplings) == 7


def test_weighted_graph_weights_carry_through():
    graph = nx.Graph()
    graph.add_edge(0, 1, weight=2.0)
    problem = maxcut_from_graph(graph)
    assert problem.couplings == ((0, 1, 1.0),)  # weight / 2


# -- SK model -----------------------------------------------------------------


def test_sk_is_fully_connected():
    problem = sk_problem(5, seed=0)
    assert len(problem.couplings) == 10


def test_sk_coupling_magnitudes_pm1():
    problem = sk_problem(6, seed=1)
    scale = 1.0 / np.sqrt(6)
    for _, _, weight in problem.couplings:
        assert abs(weight) == pytest.approx(scale)


def test_sk_gaussian_variant():
    problem = sk_problem(6, seed=1, couplings="gaussian")
    weights = [w for _, _, w in problem.couplings]
    assert len(set(np.abs(weights))) > 1


def test_sk_unknown_scheme_raises():
    with pytest.raises(ValueError):
        sk_problem(4, couplings="cauchy")


def test_sk_needs_two_spins():
    with pytest.raises(ValueError):
        sk_problem(1)


def test_sk_seed_determinism():
    a = sk_problem(5, seed=9)
    b = sk_problem(5, seed=9)
    assert a.couplings == b.couplings


# -- Chemistry -----------------------------------------------------------------


def test_h2_hamiltonian_structure():
    hamiltonian = h2_hamiltonian()
    assert hamiltonian.num_qubits == 2
    labels = {term.label for term in hamiltonian}
    assert {"II", "ZI", "IZ", "ZZ", "XX", "YY"} == labels


def test_h2_ground_energy_near_literature():
    """O'Malley et al. report ~-1.85 Ha total at equilibrium."""
    energy = h2_hamiltonian().ground_energy()
    assert -1.90 < energy < -1.80


def test_h2_matrix_is_hermitian():
    matrix = h2_hamiltonian().matrix()
    assert np.allclose(matrix, matrix.conj().T)


def test_lih_hamiltonian_structure():
    hamiltonian = lih_hamiltonian()
    assert hamiltonian.num_qubits == 4
    assert len(hamiltonian) > 15
    matrix = hamiltonian.matrix()
    assert np.allclose(matrix, matrix.conj().T)


def test_lih_ground_energy_below_identity_shift():
    """The correlated ground state must be below the bare core energy."""
    hamiltonian = lih_hamiltonian()
    identity_coefficient = next(
        term.coefficient for term in hamiltonian if term.weight == 0
    )
    assert hamiltonian.ground_energy() < np.real(identity_coefficient)
