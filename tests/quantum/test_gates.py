"""Gate registry: matrices, unitarity, inverses, aliases, stacks."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GateError
from repro.quantum import gates as G
from repro.quantum.parameters import Parameter

ANGLES = st.floats(min_value=-6.0, max_value=6.0, allow_nan=False)

ALL_NAMES = sorted({spec.name for spec in G.GATE_SPECS.values()})


def test_registry_contains_standard_gates():
    for name in ("x", "y", "z", "h", "s", "t", "cx", "cz", "swap", "ccx", "u"):
        assert name in G.GATE_SPECS


def test_aliases_resolve_to_same_spec():
    assert G.get_spec("cnot") is G.get_spec("cx")
    assert G.get_spec("phase") is G.get_spec("p")
    assert G.get_spec("cphase") is G.get_spec("cp")


def test_case_insensitive_lookup():
    assert G.get_spec("CX").name == "cx"
    assert G.get_spec("H").name == "h"


def test_unknown_gate_raises():
    with pytest.raises(GateError, match="unknown gate"):
        G.get_spec("frobnicate")


def test_wrong_param_count_raises():
    with pytest.raises(GateError, match="parameter"):
        G.gate_matrix("rx", ())
    with pytest.raises(GateError, match="parameter"):
        G.gate_matrix("h", (1.0,))


@pytest.mark.parametrize("name", ALL_NAMES)
def test_every_gate_matrix_is_unitary(name):
    spec = G.GATE_SPECS[name]
    params = tuple(0.37 * (i + 1) for i in range(spec.num_params))
    mat = spec.matrix(params)
    dim = 2**spec.num_qubits
    assert mat.shape == (dim, dim)
    assert np.allclose(mat @ mat.conj().T, np.eye(dim), atol=1e-10)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_inverse_params_gives_actual_inverse(name):
    spec = G.GATE_SPECS[name]
    if name == "iswap":
        with pytest.raises(GateError):
            G.inverse_params(name, ())
        return
    params = tuple(0.53 * (i + 1) for i in range(spec.num_params))
    inv_name, inv_params = G.inverse_params(name, params)
    product = G.gate_matrix(inv_name, inv_params) @ spec.matrix(params)
    dim = 2**spec.num_qubits
    # Inverse up to global phase.
    phase = product[0, 0]
    assert abs(abs(phase) - 1) < 1e-9
    assert np.allclose(product, phase * np.eye(dim), atol=1e-9)


@given(theta=ANGLES)
@settings(max_examples=50, deadline=None)
def test_rotation_composition(theta):
    half = G.gate_matrix("rx", (theta / 2,))
    assert np.allclose(half @ half, G.gate_matrix("rx", (theta,)), atol=1e-9)


@given(theta=ANGLES, phi=ANGLES, lam=ANGLES)
@settings(max_examples=50, deadline=None)
def test_u_matrix_unitary(theta, phi, lam):
    mat = G.gate_matrix("u", (theta, phi, lam))
    assert np.allclose(mat @ mat.conj().T, np.eye(2), atol=1e-9)


def test_controlled_construction_matches_cx():
    assert np.allclose(G.controlled(G.X_MATRIX), G.CX_MATRIX)


def test_ccx_flips_only_when_both_controls_set():
    mat = G.CCX_MATRIX
    # |110> in (c1, c2, t) little-endian = index 3; flips t -> index 7.
    assert mat[7, 3] == 1 and mat[3, 7] == 1
    # |010> (only c2 set) stays put.
    assert mat[2, 2] == 1


def test_cswap_swaps_targets_only_with_control():
    mat = G.CSWAP_MATRIX
    assert mat[3, 5] == 1 and mat[5, 3] == 1  # c=1: |a=1,b=0> <-> |a=0,b=1>
    assert mat[2, 2] == 1  # c=0: untouched


def test_rzz_diagonal():
    mat = G.gate_matrix("rzz", (0.7,))
    assert np.allclose(mat, np.diag(np.diag(mat)))


def test_hermitian_pairs_are_mutual():
    for spec in set(G.GATE_SPECS.values()):
        if spec.hermitian_pair:
            other = G.get_spec(spec.hermitian_pair)
            assert other.hermitian_pair == spec.name


# ---------------------------------------------------------------------------
# Parametric stacks: one np.array call, byte for byte the per-row matrices
# ---------------------------------------------------------------------------

#: Edge angles every parametric gate is built at, before the seeded ones.
EDGE_ANGLES = (0.0, math.pi, -math.pi, 2 * math.pi, -2 * math.pi, 1e-300, 1e6)

#: sha256 (first 16 hex digits) of each gate's ``matrix()`` bytes over
#: :func:`angle_rows`, computed before parametric builders returned
#: entries: a builder change that moves any matrix, by a bit, fails here.
PINNED_MATRIX_DIGESTS = {
    "ccx": "034510c1965eec9a",
    "ccz": "91cb552539775b58",
    "ch": "da0ae56f81c74ab3",
    "cp": "b76059c99e768756",
    "crx": "9f75b57babf83bc8",
    "cry": "2eb8c7196f127186",
    "crz": "6480a448994ace58",
    "cswap": "d9bbbd4d72a7799a",
    "csx": "133a8fa3cb3984fe",
    "csxdg": "eddcb8767add0726",
    "cx": "efe9d873b4bed450",
    "cy": "97bc3e2294a2491c",
    "cz": "411d2854573bf057",
    "h": "b8a0541aa80b1a09",
    "id": "fbfcd8f81e798f2e",
    "iswap": "003598909c271bc7",
    "p": "f8dcdfcb76ece2af",
    "rx": "8edec0beb9236bb7",
    "rxx": "b0a0a2ee072e1b78",
    "ry": "0c82387f808965df",
    "ryy": "cba6dba8a84b2a4f",
    "rz": "947e805a09f2b18e",
    "rzz": "e24bdcba35fc1343",
    "s": "1ea2137ca5d78fbf",
    "sdg": "ccdbdd050e820173",
    "swap": "0fe211d0be6e5908",
    "sx": "55cccb4cdb10c618",
    "sxdg": "e083861118e1102a",
    "t": "459abd7d8b11f4f9",
    "tdg": "457e115b59eec9bd",
    "u": "572ce31ea3b0396d",
    "x": "33c11b461fe67e71",
    "y": "dd9ec1e25765af2c",
    "z": "c8f478783d65670e",
}

PARAMETRIC = sorted(
    {spec.name for spec in G.GATE_SPECS.values() if spec.num_params}
)


def angle_rows(num_params: int) -> list[tuple[float, ...]]:
    """The edge angles and eight seeded ones, as rows of ``num_params``."""
    values = [
        *EDGE_ANGLES,
        *np.random.default_rng(3200).uniform(-10.0, 10.0, 8).tolist(),
    ]
    return [
        tuple(values[(i + 5 * j) % len(values)] for j in range(num_params))
        for i in range(len(values))
    ]


def test_pinned_matrix_digests_cover_every_gate():
    assert set(PINNED_MATRIX_DIGESTS) == set(ALL_NAMES)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_matrix_bytes_match_the_pinned_digest(name):
    spec = G.GATE_SPECS[name]
    rows = angle_rows(spec.num_params) if spec.num_params else [()]
    digest = hashlib.sha256()
    for params in rows:
        matrix = spec.matrix(params)
        assert matrix.dtype == np.complex128
        digest.update(matrix.tobytes())
    assert digest.hexdigest()[:16] == PINNED_MATRIX_DIGESTS[name]


@pytest.mark.parametrize("name", PARAMETRIC)
def test_stack_is_the_per_row_matrices_byte_for_byte(name):
    spec = G.GATE_SPECS[name]
    rows = angle_rows(spec.num_params)
    rows += [
        tuple(row) for row in
        np.random.default_rng(3201).uniform(-7.0, 7.0, (6, spec.num_params)).tolist()
    ]
    stack = spec.stack(rows)
    want = np.stack([spec.matrix(params) for params in rows])
    assert stack.dtype == want.dtype and stack.shape == want.shape
    assert stack.flags.c_contiguous
    assert stack.tobytes() == want.tobytes()
    # Two rows, as a two-point batch builds them.
    assert spec.stack(rows[:2]).tobytes() == want[:2].tobytes()


@pytest.mark.parametrize("name", PARAMETRIC)
def test_stack_refuses_a_row_with_the_matrix_error(name):
    spec = G.GATE_SPECS[name]
    good = (0.25,) * spec.num_params
    symbolic = (Parameter("theta"),) * spec.num_params
    short = good[:-1]
    for bad in (symbolic, short, good + (0.5,)):
        with pytest.raises(GateError) as from_matrix:
            spec.matrix(bad)
        with pytest.raises(GateError) as from_stack:
            spec.stack([good, bad])
        assert str(from_stack.value) == str(from_matrix.value)
    with pytest.raises(GateError, match=r"\[QA105\]"):
        spec.stack([symbolic])
