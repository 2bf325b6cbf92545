"""Stabilizer code constructions: structure, commutation, matching graphs."""

import numpy as np
import pytest

from repro.errors import CodeConstructionError
from repro.qec.codes.base import BOUNDARY, CSSCode, _gf2_rank
from repro.qec.codes.repetition import RepetitionCode
from repro.qec.codes.steane import SteaneCode
from repro.qec.codes.surface import SurfaceCode
from repro.utils.graphs import edges


class TestSurfaceCode:
    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_counts(self, d):
        code = SurfaceCode(d)
        assert code.num_data_qubits == d * d
        assert code.num_x_checks == (d * d - 1) // 2
        assert code.num_z_checks == (d * d - 1) // 2
        assert code.num_logical_qubits == 1

    def test_even_distance_rejected(self):
        with pytest.raises(CodeConstructionError):
            SurfaceCode(4)
        with pytest.raises(CodeConstructionError):
            SurfaceCode(1)

    @pytest.mark.parametrize("d", [3, 5])
    def test_all_stabilizers_commute(self, d):
        code = SurfaceCode(d)
        stabilizers = code.stabilizers()
        for i, a in enumerate(stabilizers):
            for b in stabilizers[i + 1 :]:
                assert a.commutes_with(b)

    @pytest.mark.parametrize("d", [3, 5])
    def test_logicals_commute_with_stabilizers_and_anticommute(self, d):
        code = SurfaceCode(d)
        lx = code.logical_x_operator()
        lz = code.logical_z_operator()
        for stab in code.stabilizers():
            assert lx.commutes_with(stab)
            assert lz.commutes_with(stab)
        assert not lx.commutes_with(lz)

    def test_logical_weights_equal_distance(self):
        code = SurfaceCode(5)
        assert code.logical_x_operator().weight == 5
        assert code.logical_z_operator().weight == 5

    def test_distance_verified_exhaustively_d3(self):
        """No X error of weight < 3 is an undetected logical operator."""
        import itertools

        code = SurfaceCode(3)
        n = code.num_data_qubits
        for weight in (1, 2):
            for support in itertools.combinations(range(n), weight):
                error = np.zeros(n, dtype=bool)
                error[list(support)] = True
                syndrome = code.syndrome(error, "x")
                if not syndrome.any():
                    assert not code.logical_flipped(error, "x"), support

    def test_bulk_checks_have_weight_4(self):
        code = SurfaceCode(5)
        weights = sorted(code.hx.sum(axis=1))
        assert set(weights) <= {2, 4}
        assert weights.count(2) > 0 and weights.count(4) > 0

    def test_matching_graph_structure(self):
        code = SurfaceCode(3)
        graph = code.matching_graph("x")
        assert BOUNDARY in graph
        assert len(graph) == code.num_z_checks + 1
        # every data qubit appears as exactly one fault edge
        faults = sorted(fault for _, _, fault in edges(graph))
        assert len(set(faults)) == len(faults)

    def test_ascii_lattice_renders(self):
        code = SurfaceCode(3)
        err = np.zeros(9, dtype=bool)
        err[4] = True
        art = code.ascii_lattice(err, {0}, "x")
        assert "X" in art and "*" in art and "." in art

    def test_data_index_bounds(self):
        code = SurfaceCode(3)
        assert code.data_index(1, 2) == 5
        with pytest.raises(CodeConstructionError):
            code.data_index(3, 0)


class TestRepetitionCode:
    def test_structure(self):
        code = RepetitionCode(5)
        assert code.num_data_qubits == 5
        assert code.num_z_checks == 4
        assert code.num_x_checks == 0
        assert code.num_logical_qubits == 1

    def test_even_distance_rejected(self):
        with pytest.raises(CodeConstructionError):
            RepetitionCode(4)

    def test_single_x_error_syndrome(self):
        code = RepetitionCode(3)
        error = np.array([False, True, False])
        assert code.syndrome(error, "x").tolist() == [True, True]

    def test_full_flip_is_logical(self):
        code = RepetitionCode(3)
        error = np.ones(3, dtype=bool)
        assert not code.syndrome(error, "x").any()
        assert code.logical_flipped(error, "x")


@pytest.mark.parametrize("code", [SurfaceCode(3), RepetitionCode(5), SteaneCode()])
@pytest.mark.parametrize("error_type", ["x", "z"])
def test_logical_flips_is_logical_flipped_per_row(code, error_type):
    errors = np.random.default_rng(5).random((64, code.num_data_qubits)) < 0.4
    flips = code.logical_flips(errors, error_type)
    assert flips.dtype == bool and flips.shape == (64,)
    assert flips.tolist() == [code.logical_flipped(e, error_type) for e in errors]
    assert 0 < flips.sum() < 64


class TestSteaneCode:
    def test_structure(self):
        code = SteaneCode()
        assert code.num_data_qubits == 7
        assert code.num_logical_qubits == 1
        assert code.distance == 3

    def test_syndrome_reads_qubit_index(self):
        code = SteaneCode()
        for q in range(7):
            error = np.zeros(7, dtype=bool)
            error[q] = True
            syndrome = code.syndrome(error, "x")
            assert SteaneCode.syndrome_to_qubit(syndrome) == q

    def test_trivial_syndrome(self):
        assert SteaneCode.syndrome_to_qubit(np.zeros(3, dtype=bool)) is None

    def test_self_dual(self):
        code = SteaneCode()
        assert (code.hx == code.hz).all()


class TestCSSValidation:
    def test_non_commuting_checks_rejected(self):
        hx = np.array([[True, False]])
        hz = np.array([[True, False]])
        with pytest.raises(CodeConstructionError, match="CSS"):
            CSSCode(
                "bad", hx, hz,
                logical_x=np.array([True, False]),
                logical_z=np.array([True, False]),
                distance=1,
            )

    def test_logical_must_anticommute(self):
        code = RepetitionCode(3)
        with pytest.raises(CodeConstructionError, match="anticommute"):
            CSSCode(
                "bad", code.hx, code.hz,
                logical_x=np.zeros(3, dtype=bool),
                logical_z=np.zeros(3, dtype=bool),
                distance=3,
            )

    def test_gf2_rank(self):
        m = np.array([[1, 0, 1], [0, 1, 1], [1, 1, 0]], dtype=bool)
        assert _gf2_rank(m) == 2  # row3 = row1 + row2 over GF(2)

    def test_syndrome_bad_error_type(self):
        with pytest.raises(CodeConstructionError):
            RepetitionCode(3).syndrome(np.zeros(3, dtype=bool), "w")
