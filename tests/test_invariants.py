import itertools
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from zbtopo import (
    GaplessError,
    NotHighSymmetryError,
    WavePacket,
    chern_from_hsp,
    chern_plaquette,
    chiral_ti_3d,
    compute_invariants,
    kane_mele,
    kane_mele_spin_sector,
    linearize_at_hsp,
    maxwell_lattice,
    rashba_gap_ramp,
    rotation_index,
    spin_j_continuum,
    wavepacket_trajectory,
    winding_from_hsp,
    winding_numerical,
    z2_fu_kane_parity,
    z2_kane_mele,
    z2_spin_chern_parity,
    zone_degree,
)
from zbtopo import invariants
from zbtopo.generators import spin_matrices
from zbtopo.models import evaluate

PI = np.pi

# Published phase table (t_h = 1), hsp order (0,0), (0,pi), (pi,0), (pi,pi).
PHASE_TABLE = {
    -3.0: (0, (-1, +1, +1, -1)),
    -1.0: (2, (-1, +1, +1, +1)),
    1.0: (-2, (-1, -1, -1, +1)),
    3.0: (0, (+1, -1, -1, +1)),
}


# ---------------------------------------------------------------- linearization

def test_linearize_maxwell_origin():
    lin = linearize_at_hsp(maxwell_lattice(1.0, 1.0), [0.0, 0.0])
    assert lin.velocities == (2.0, 2.0)
    assert abs(lin.mass - 2.0 * (1.0 - 2.0)) < 1e-12
    assert lin.nu == -1


def test_linearize_maxwell_corner():
    lin = linearize_at_hsp(maxwell_lattice(1.0, 1.0), [PI, PI])
    assert lin.velocities == (-2.0, -2.0)
    assert abs(lin.mass - 6.0) < 1e-12
    assert lin.nu == +1


def test_linearize_chiral_signs():
    lin = linearize_at_hsp(chiral_ti_3d(2.0), [PI, 0.0, 0.0])
    assert np.sign(math.prod(lin.velocities)) == -1
    assert np.sign(lin.mass) == +1
    assert abs(lin.mass - 1.0) < 1e-12


def test_linearize_mass_is_half_the_outer_gap():
    # for the three-band models H(K) = m * G with spec(G) = (-1, 0, 1)
    for model in (maxwell_lattice(1.0, 0.7), chiral_ti_3d(1.6)):
        from zbtopo.models import evaluate

        for K in model.hsps:
            lin = linearize_at_hsp(model, K)
            w = np.linalg.eigvalsh(evaluate(model, K))
            assert abs(abs(lin.mass) - 0.5 * (w[-1] - w[0])) < 1e-8 * max(1.0, w[-1] - w[0])


def test_linearize_rejects_generic_momentum():
    with pytest.raises(NotHighSymmetryError):
        linearize_at_hsp(maxwell_lattice(1.0, 1.0), [0.3, 0.0])


def test_linearize_rejects_gapless_point():
    with pytest.raises(GaplessError):
        linearize_at_hsp(maxwell_lattice(1.0, 2.0), [0.0, 0.0])


@pytest.mark.parametrize(
    "model, first_gapless",
    [
        (maxwell_lattice(1.0, 0.0), (0.0, PI)),        # closes at (0, pi) and (pi, 0)
        (maxwell_lattice(1.0, -2.0), (PI, PI)),
        (chiral_ti_3d(1.0), (0.0, 0.0, PI)),           # three corners with one pi
        (chiral_ti_3d(-1.0), (0.0, PI, PI)),           # three corners with two pi
    ],
)
def test_stacked_linearization_names_first_gapless_point(model, first_gapless):
    hsps = [tuple(K) for K in model.hsps]
    for K in hsps[:hsps.index(first_gapless)]:  # every earlier point is gapped
        linearize_at_hsp(model, K)
    with pytest.raises(GaplessError) as single:
        linearize_at_hsp(model, first_gapless)
    with pytest.raises(GaplessError) as stacked:
        linearize_at_hsp(model, model.hsps)
    assert str(stacked.value) == str(single.value)
    named = f"gapless high-symmetry point K={first_gapless}: |m| = "
    assert str(single.value).startswith(named)


def test_linearize_refuses_a_non_finite_hamiltonian():
    # 2 t_h overflows, so H at the first corner holds inf and NaN: that point is
    # refused, and its momentum is spelled in plain floats
    model = maxwell_lattice(1e308, 1.0)
    with np.errstate(all="ignore"), pytest.raises(GaplessError) as info:
        linearize_at_hsp(model, model.hsps)
    assert str(info.value) == "gapless high-symmetry point K=(0.0, 0.0): |m| = nan"


def test_linearize_needs_mass_generator():
    with pytest.raises(NotHighSymmetryError, match="mass generator"):
        linearize_at_hsp(kane_mele(1.0, 0.06, 0.0, 0.1), [0.0, 0.0])


def test_linearize_spin_j_origin():
    lin = linearize_at_hsp(spin_j_continuum(1.5, 0.7, -1.2, 0.4), [0.0, 0.0])
    assert lin.velocities == (0.7, -1.2)
    assert lin.nu == int(np.sign(0.7 * -1.2 * 0.4))


@pytest.mark.parametrize("j", [1.0, 1.5, 2.5])
def test_linearize_spin_j_ladder_returns_declared_values(j):
    # the data are the declared coefficients, not a trace projection that
    # rounds on the irrational ladder entries (m = 0.4000000000000001 at j = 3/2)
    lin = linearize_at_hsp(spin_j_continuum(j, 0.7, -1.2, 0.4), [0.0, 0.0])
    assert (lin.velocities, lin.mass) == ((0.7, -1.2), 0.4)


@pytest.mark.parametrize("model, K", [
    (maxwell_lattice(1.0, 1.0), [0.0, 0.0, 0.0]),
    (maxwell_lattice(1.0, 1.0), [[0.0, 0.0, 0.0], [PI, PI, PI]]),
    (chiral_ti_3d(2.0), [PI, 0.0]),
    (spin_j_continuum(0.5, 1.0, 1.0, 1.0), [0.0]),
])
def test_linearize_rejects_wrong_momentum_dimension(model, K):
    # the coefficients alone would read a 3-vector's first two entries
    expected = f"got {np.shape(K)[-1]}, model '{model.name}' expects {model.momentum_dim}"
    with pytest.raises(ValueError, match=f"momentum dimension mismatch: {expected}"):
        linearize_at_hsp(model, K)


# ---------------------------------------------------------------- Chern numbers

@pytest.mark.parametrize("m_param", PHASE_TABLE)
def test_phase_table_reproduced(m_param):
    chern, nus = PHASE_TABLE[m_param]
    model = maxwell_lattice(1.0, m_param)
    assert tuple(linearize_at_hsp(model, K).nu for K in model.hsps) == nus
    assert chern_from_hsp(model, -1) == chern
    assert chern_plaquette(model, 0, 64) == chern


def test_chern_linear_in_band_index():
    model = maxwell_lattice(1.0, 1.0)
    assert chern_from_hsp(model, 0) == 0
    assert chern_from_hsp(model, 1) == -chern_from_hsp(model, -1) == 2


def test_chern_half_integer_index_reported_raw():
    model = maxwell_lattice(1.0, 1.0)
    assert chern_from_hsp(model, -0.5) == -1
    assert chern_from_hsp(model, 0.5) == 1


def test_chern_from_hsp_refuses_the_continuum():
    with pytest.raises(ValueError, match="the local Chern formula needs a periodic 2D model, "
                                         "got 'spin_j'"):
        chern_from_hsp(spin_j_continuum(1.0, 1.0, 1.0, 0.5), -1)


@pytest.mark.parametrize("spin", [1, -1])
def test_chern_from_hsp_reads_the_sector_valleys(spin):
    # (1/2) sum over K, K' of sgn(det V) sgn(m): the Dirac-point index
    sector = kane_mele_spin_sector(1.0, 0.06, 0.1, spin)
    lins = linearize_at_hsp(sector, sector.hsps)
    assert [lin.nu for lin in lins] == [spin, spin]
    assert chern_from_hsp(sector, -0.5) == spin == zone_degree(sector)
    assert chern_from_hsp(kane_mele_spin_sector(1.0, 0.06, 0.4, spin), -0.5) == 0


def test_chern_from_hsp_gapless_propagates():
    with pytest.raises(GaplessError):
        chern_from_hsp(maxwell_lattice(1.0, 0.0), -1)


def test_plaquette_per_band_values():
    model = maxwell_lattice(1.0, 1.0)
    values = [chern_plaquette(model, band) for band in range(3)]
    assert values == [-2, 0, 2]
    assert sum(values) == 0


def test_plaquette_band_tuple_returns_a_tuple():
    model = maxwell_lattice(1.0, 1.0)
    assert chern_plaquette(model, (0, 1, 2)) == (-2, 0, 2)
    assert chern_plaquette(model, (2, 0)) == (2, -2)
    assert chern_plaquette(model, (1,)) == (0,)
    with pytest.raises(ValueError, match="band 3 outside 0..2"):
        chern_plaquette(model, (0, 3))


@pytest.mark.parametrize("n", [32, 33, 64])
def test_subsampled_zone_solve_is_bit_equal_to_a_direct_solve(monkeypatch, n):
    raw_sums = {}
    real = invariants._fhs_sum

    def spy(model, band, w, v):
        raw_sums[band, len(w)] = real(model, band, w, v)
        return raw_sums[band, len(w)]

    monkeypatch.setattr(invariants, "_fhs_sum", spy)
    for model in (maxwell_lattice(1.0, 1.3), kane_mele_spin_sector(1.0, 0.06, 0.1, +1)):
        w, v = invariants._zone_eigh(model, 2 * n)
        w_n, v_n = invariants._zone_eigh(model, n)
        assert np.array_equal(w[::2, ::2], w_n) and np.array_equal(v[::2, ::2], v_n)
        # the grid-n sums inside a call, read off the 2n solve, equal a direct solve's
        raw_sums.clear()
        chern_plaquette(model, tuple(range(model.band_count)), n)
        for band in range(model.band_count):
            assert raw_sums[band, n] == real(model, band, w_n, v_n)
            assert raw_sums[band, 2 * n] == real(model, band, w, v)


@pytest.mark.parametrize(
    "band, grid, solved",
    [(0, 64, [128]), ((0, 1, 2), 64, [128]), ((2, 1, 0), 16, [32]), (0, 300, []), (0, 257, []),
     (0, 512, [])],
)
def test_plaquette_solves_each_grid_once(monkeypatch, band, grid, solved):
    shapes = []
    real = invariants.evaluate

    def spy(model, k):
        shapes.append(k.shape[:-1])
        return real(model, k)

    monkeypatch.setattr(invariants, "evaluate", spy)
    try:
        chern_plaquette(maxwell_lattice(1.0, 1.0), band, grid)
    except ValueError as exc:
        # a grid above half the limit has no finer grid to agree with: refused before a solve
        assert str(exc) == f"grid must be an integer in 1..256, got {grid}"
        assert grid > invariants.PLAQUETTE_MAX_GRID // 2
    assert shapes == [(n, n) for n in solved]


GAPLESS_MESSAGES = {
    2.0: "touches a neighbour near k = (0.000000, 0.000000): gap 0.000e+00",
    0.0: "touches a neighbour near k = (0.000000, 3.141593): gap 2.449e-16",
}


@pytest.mark.parametrize("m_param", sorted(GAPLESS_MESSAGES))
@pytest.mark.parametrize("band, first", [(0, 0), (1, 1), (2, 2), ((0, 1, 2), 0), ((2, 1, 0), 2)])
@pytest.mark.parametrize("grid", [33, 64])
def test_plaquette_gapless_messages(m_param, band, first, grid):
    with pytest.raises(GaplessError) as info:
        chern_plaquette(maxwell_lattice(1.0, m_param), band, grid)
    assert str(info.value) == f"band {first} {GAPLESS_MESSAGES[m_param]}"


def test_plaquette_reports_a_coarse_grid_closing_from_the_coarse_grid():
    # Gap 2e-8 at every point of the 32 grid and 0 at the points only the 64
    # grid holds: the 32 grid is checked first, so it names its own minimum.
    def coeff(k):
        comb = 1e-8 * (1.0 + np.cos(32 * k[..., 0])) / 2
        return np.stack([comb, np.zeros_like(comb), np.zeros_like(comb)], axis=-1)

    model = replace(kane_mele_spin_sector(1.0, 0.06, 0.1, +1), coeff=coeff)
    with pytest.raises(GaplessError, match=r"near k = \(0\.000000, 0\.000000\): gap 2\.000e-08"):
        chern_plaquette(model, (1, 0), 32)


def test_plaquette_band_sum_zero_generic():
    model = maxwell_lattice(1.0, 0.7)
    assert sum(chern_plaquette(model, band, 32) for band in range(3)) == 0


def test_plaquette_refuses_touching_bands():
    with pytest.raises(GaplessError, match="near k"):
        chern_plaquette(maxwell_lattice(1.0, 2.0), 0, 32)


def test_plaquette_band_range_checked():
    with pytest.raises(ValueError, match="band"):
        chern_plaquette(maxwell_lattice(1.0, 1.0), 3)


def test_plaquette_grid_above_limit_rejected():
    # a start grid past the doubling limit used to leave the sum unbound
    with pytest.raises(ValueError, match="grid must be an integer in 1..256, got 1024"):
        chern_plaquette(maxwell_lattice(1.0, 1.0), 0, 1024)


@pytest.mark.parametrize("grid", [0, -8])
def test_plaquette_grid_nonpositive_rejected(grid):
    with pytest.raises(ValueError, match=f"grid must be an integer in 1..256, got {grid}"):
        chern_plaquette(maxwell_lattice(1.0, 1.0), 0, grid)


def test_cross_method_agreement_random_masses():
    rng = np.random.default_rng(2024)
    count = 0
    while count < 20:
        m_param = rng.uniform(-3.5, 3.5)
        if min(abs(m_param - c) for c in (-2.0, 0.0, 2.0)) < 0.1:
            continue
        count += 1
        model = maxwell_lattice(1.0, m_param)
        assert chern_from_hsp(model, -1) == chern_plaquette(model, 0, 32)


def test_kane_mele_sector_cherns_opposite():
    up = kane_mele_spin_sector(1.0, 0.06, 0.1, +1)
    down = kane_mele_spin_sector(1.0, 0.06, 0.1, -1)
    cu = chern_plaquette(up, 0, 32)
    cd = chern_plaquette(down, 0, 32)
    assert abs(cu) == 1 and cd == -cu


def test_degree_refuses_an_on_grid_closing():
    # t = 0 leaves d = (0, 0, Haldane row), which vanishes at Gamma
    with pytest.raises(GaplessError, match=r"near k = \(0\.000000, 0\.000000\): gap 0\.000e\+00"):
        zone_degree(kane_mele_spin_sector(0.0, 0.1, 0.0, +1))


@pytest.mark.parametrize("model", [
    kane_mele(1.0, 0.06, 0.0, 0.1),
    spin_j_continuum(0.5, 1.0, 1.0, 1.0),
], ids=["four_band", "continuum"])
def test_zone_degree_refuses_a_model_without_a_mass_row_or_period(model):
    with pytest.raises(ValueError) as info:
        zone_degree(model)
    assert str(info.value) == ("the zone degree needs a periodic 2D or 3D model with a mass row, "
                               f"got '{model.name}'")


# ---------------------------------------------------------------- 3D winding

WINDING_TABLE = {4.0: 0, 2.0: -1, 0.0: 2, -2.0: -1, -4.0: 0}


@pytest.mark.parametrize("m_param", WINDING_TABLE)
def test_winding_cross_check(m_param):
    model = chiral_ti_3d(m_param)
    expected = WINDING_TABLE[m_param]
    assert winding_from_hsp(model) == expected
    assert winding_numerical(model, 40) == expected


def test_winding_gapless_rejected():
    with pytest.raises(GaplessError):
        winding_from_hsp(chiral_ti_3d(3.0))
    with pytest.raises(GaplessError) as info:
        winding_numerical(chiral_ti_3d(3.0), 20)
    assert str(info.value) == ("spectrum gap closes near k = (0.000000, 0.000000, 0.000000): "
                               "gap 0.000e+00")


def _nan_fhs_sum():
    model = maxwell_lattice(1.0, 1.0)
    w, v = np.linalg.eigh(evaluate(model, invariants._zone_mesh(8)))
    w[1, 2, 0] = np.nan
    return invariants._fhs_sum(model, 1, w, v)


def _nan_sector_count():
    d = kane_mele_spin_sector(1.0, 0.06, 0.1, +1).coeff(invariants._zone_mesh(8))
    d[1, 2] = np.nan
    return invariants._preimage_count(d)


def _planted(model, at, value):
    """``model`` with its coefficients set to ``value`` at zone-mesh index ``at``."""
    def coeff(k):
        out = model.coeff(k)
        out[at] = value
        return out

    return replace(model, coeff=coeff)


def _nan_winding():
    # mesh 8 is read off the 16 mesh, which is the one evaluated
    return winding_numerical(_planted(chiral_ti_3d(2.0), (2, 4, 6), np.nan), 16)


def _nan_plaquette(value=np.nan):
    # grid 8 is read off the 16 mesh, which is the one evaluated
    return chern_plaquette(_planted(maxwell_lattice(1.0, 1.0), (3, 5), value), 0, 8)


@pytest.mark.parametrize("integral, message", [
    (_nan_fhs_sum, "band 1 touches a neighbour near k = (0.785398, 1.570796): gap nan"),
    (_nan_plaquette, "Hamiltonian is not finite near k = (1.178097, 1.963495): gap nan"),
    # an inf in H is refused the same way, before eigh: no gap is computed there
    (lambda: _nan_plaquette(np.inf),
     "Hamiltonian is not finite near k = (1.178097, 1.963495): gap nan"),
    (_nan_sector_count, "spectrum gap closes near k = (0.785398, 1.570796): gap nan"),
    (_nan_winding, "spectrum gap closes near k = (0.785398, 1.570796, 2.356194): gap nan"),
])
def test_zone_integrals_refuse_a_nan_integrand(integral, message):
    # a NaN gap is refused where it sits, not summed into a NaN (or, in the
    # winding integral, rounded with Python's own "cannot convert float NaN")
    with pytest.raises(GaplessError) as info:
        integral()
    assert str(info.value) == message


def _overflow_sector_count():
    d = kane_mele_spin_sector(1.0, 0.06, 0.1, +1).coeff(invariants._zone_mesh(8))
    d[1, 2] = 1e200
    return invariants._preimage_count(d)


@pytest.mark.parametrize("integral, message", [
    (lambda: winding_numerical(chiral_ti_3d(1e308), 16), "(0.000000, 0.000000, 0.000000)"),
    (lambda: winding_numerical(_planted(chiral_ti_3d(2.0), (2, 4, 6), 1e200), 16),
     "(0.785398, 1.570796, 2.356194)"),
    (lambda: zone_degree(kane_mele_spin_sector(1e200, 0.06, 0.1, +1), 8),
     "(0.000000, 0.000000)"),
    (_overflow_sector_count, "(0.785398, 1.570796)"),
])
def test_zone_integrals_refuse_an_overflowing_norm(integral, message):
    # |d| above ~1.3e154 squares to inf: d/|d| would be all zeros and the
    # integral an empty 0, with numpy's overflow warning on stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            integral()
    assert not isinstance(info.value, GaplessError)
    assert str(info.value) == f"coefficient norm |d| overflows near k = {message}"


def _scaled_chiral(scale):
    model = chiral_ti_3d(2.0)
    return replace(model, coeff=lambda k, c=model.coeff: scale * c(k))


@pytest.mark.parametrize("model", [maxwell_lattice(1e105, 1.0), _scaled_chiral(1e80)],
                         ids=["maxwell-1e105", "chiral-1e80"])
def test_zone_degree_counts_a_finite_norm_without_overflow(model):
    # |d| squares to a finite number, but the cofactor products of D + 1 components
    # do not: the count reads the mesh scaled by a power of two, and gets the corner value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert zone_degree(model) == -1


_GAPPED_MASS = st.floats(-4.5, 4.5).filter(
    lambda m: min(abs(m - c) for c in (-3.0, -1.0, 1.0, 3.0)) > 1e-3)


@given(m_param=_GAPPED_MASS)
def test_winding_count_equals_corner_formula_property(m_param):
    model = chiral_ti_3d(m_param)
    assert winding_numerical(model, 40) == winding_from_hsp(model)


def _kuhn_count(n, d):
    """Signed preimage count on a directly built n^D mesh d, of SECTOR_TARGET for D = 2 and
    WINDING_TARGET for D = 3: each cell's D! simplices gathered by explicit index arithmetic,
    a cone with det 0 left out, the permutation sign from its inversions."""
    dim = d.ndim - 1
    if dim == 2:
        target, orientation = invariants.SECTOR_TARGET, invariants.SECTOR_ORIENTATION
    else:
        target, orientation = invariants.WINDING_TARGET, invariants.DEGREE_ORIENTATION
    shifts = np.stack(np.meshgrid(*[np.arange(n)] * dim, indexing="ij"), axis=-1)
    shifts = shifts.reshape(-1, dim)
    total = 0
    for perm in itertools.permutations(range(dim)):
        inversions = sum(perm[i] > perm[j] for i in range(dim) for j in range(i + 1, dim))
        steps = np.zeros((dim + 1, dim), dtype=int)
        for i in range(1, dim + 1):
            steps[i:, perm[i - 1]] += 1
        corners = (shifts[:, None, :] + steps) % n
        cone = d[tuple(corners[..., axis] for axis in range(dim))].swapaxes(-1, -2)
        det = np.linalg.det(cone)
        solid = det != 0
        x = np.linalg.solve(cone[solid], target[:, None])[..., 0]
        total += (-1) ** inversions * int(np.sign(det[solid][(x > 0).all(axis=-1)]).sum())
    return orientation * float(total)


def stacked_winding(model, grid):
    """The two-grid count on meshes 8, 16, ... up to ``grid``, each built directly from
    model.coeff rather than read off a finer mesh; returns the outcome (value or error)."""
    previous, n = None, 8
    while n <= grid:
        raw = _kuhn_count(n, model.coeff(invariants._zone_mesh(n, 3)))
        if previous == int(raw):
            return int(raw)
        previous, n = int(raw), 2 * n
    return ("ValueError", f"zone sum did not stabilize on an integer up to grid {grid} "
                          f"(last {raw!r})")


def _winding_outcome(model, grid):
    try:
        return winding_numerical(model, grid)
    except ValueError as err:
        return (type(err).__name__, str(err))


def _expected_winding_outcome(model, grid):
    """The reference outcome, or the refusal of a grid below 16, which leaves the count on
    mesh 8 no second mesh to agree with."""
    if grid < 16:
        return ("ValueError", f"grid must be an integer in 16..64, got {grid}")
    return stacked_winding(model, grid)


@pytest.mark.parametrize("grid", [1, 2, 9, 40, 60])
@pytest.mark.parametrize("m_param", [0.5, 2.0, 3.5])
def test_winding_matches_stacked_reference_bit_for_bit(m_param, grid):
    model = chiral_ti_3d(m_param)
    assert _winding_outcome(model, grid) == _expected_winding_outcome(model, grid)


@given(m_param=st.floats(-4.5, 4.5).filter(
    lambda m: min(abs(m - c) for c in (-3.0, -1.0, 1.0, 3.0)) > 0.05), grid=st.integers(1, 24))
def test_winding_matches_stacked_reference_property(m_param, grid):
    model = chiral_ti_3d(m_param)
    assert _winding_outcome(model, grid) == _expected_winding_outcome(model, grid)


@pytest.mark.parametrize("m_param", [4.0, 2.0, 0.0, -2.0, 1.001, -0.999, 2.999, -3.001])
def test_winding_count_is_the_same_for_a_second_target(monkeypatch, m_param):
    model = chiral_ti_3d(m_param)
    first = winding_numerical(model, 40)
    second = np.array([-0.47, 0.29, 0.71, -0.43])
    monkeypatch.setattr(invariants, "WINDING_TARGET", second / np.linalg.norm(second))
    assert winding_numerical(model, 40) == first == winding_from_hsp(model)


def _degree_outcome(model, grid):
    try:
        return zone_degree(model, grid)
    except ValueError as err:
        return (type(err).__name__, str(err))


def stacked_degree(model, grid):
    """The outcome of `zone_degree` on a two-band sector, rebuilt from directly built meshes
    grid, 2 grid, .. up to 512: a grid outside 1..256, which leaves no second mesh, a mesh
    whose gap 2|d| is below the floor or NaN, and a count that never repeats on two successive
    meshes are refused."""
    if not 1 <= grid <= 256:
        return ("ValueError", f"grid must be an integer in 1..256, got {grid}")
    previous, n = None, grid
    while n <= 512:
        d = model.coeff(invariants._zone_mesh(n))
        gap = 2 * np.linalg.norm(d, axis=-1)
        if not gap.min() >= invariants.PLAQUETTE_GAP_FLOOR:
            at = np.unravel_index(int(np.argmin(gap)), gap.shape)
            k = ", ".join(f"{2 * np.pi * i / n:.6f}" for i in at)
            return ("GaplessError", f"spectrum gap closes near k = ({k}): gap {gap.min():.3e}")
        raw = _kuhn_count(n, d)
        if previous == int(raw):
            return int(raw)
        # meshes 1 and 2 hold only k in {0, pi}^2: their count is never agreed with
        previous, n = int(raw) if n > 2 else None, 2 * n
    return ("ValueError", f"zone sum did not stabilize on an integer up to grid 512 "
                          f"(last {raw!r})")


SECTORS = {
    "topological": (1.0, 0.06, 0.1, +1),
    "spin_down": (1.0, 0.06, 0.1, -1),
    "trivial": (1.2, 0.05, 0.6, +1),
    # t = 0 closes the gap at Gamma; lambda_v = 3 sqrt(3) lambda_so at the valley K'
    "t_zero": (0.0, 0.1, 0.0, +1),
    "valley_closing": (1.0, 0.07, 3 * np.sqrt(3) * 0.07, +1),
}


@pytest.mark.parametrize("grid", [0, 1, 2, 6, 9, 32, 512, 513])
@pytest.mark.parametrize("sector", SECTORS)
def test_sector_degree_matches_stacked_reference_bit_for_bit(sector, grid):
    model = kane_mele_spin_sector(*SECTORS[sector])
    assert _degree_outcome(model, grid) == stacked_degree(model, grid)


@pytest.mark.parametrize("grid", [1, 2])
def test_coarse_start_mesh_is_never_the_agreeing_value(grid):
    # meshes 1 and 2 see d(k) only at k in {0, pi}^2, where the sector's count reads 0
    # on both; the integer is the one two meshes of 4 and up agree on
    sector = kane_mele_spin_sector(1.0, 0.06, 0.1, +1)
    assert zone_degree(sector, grid) == chern_plaquette(sector, 0, grid) == 1
    assert chern_plaquette(sector, (0, 1), grid) == (1, -1)


def test_sector_degree_is_the_same_for_a_second_target(monkeypatch):
    rng = np.random.default_rng(21)
    second = np.array([0.62, 0.35, -0.70])
    seen = []
    while len(seen) < 20:
        t, lambda_so, lambda_v = rng.uniform((0.5, 0.02, -0.8), (1.5, 0.15, 0.8))
        if abs(abs(lambda_v) - 3 * np.sqrt(3) * lambda_so) < 0.03:
            continue
        sector = kane_mele_spin_sector(t, lambda_so, lambda_v, int(rng.choice([1, -1])))
        seen.append(zone_degree(sector))
        with monkeypatch.context() as patch:
            patch.setattr(invariants, "SECTOR_TARGET", second / np.linalg.norm(second))
            assert zone_degree(sector) == seen[-1]
    assert set(seen) == {-1, 0, 1}


MAXWELL_NEAR_CRITICAL = [c + s * e for c in (-2.0, 0.0, 2.0) for s in (-1, 1)
                         for e in (1e-4, 1e-3, 1e-2, 0.1, 0.5)]


@pytest.mark.parametrize("start", [8, 32])
@pytest.mark.parametrize("m_param", MAXWELL_NEAR_CRITICAL)
def test_spin_one_chern_is_twice_the_sector_degree(m_param, start):
    # the lowest band of J . d(k) carries -2 m deg(d/|d|) with m = -1: the 2D count reads
    # the J = 1 lattice exactly, its gap |d| read off the spacing 1 of Jz
    model = maxwell_lattice(1.0, m_param)
    assert 2 * zone_degree(model, start) == chern_from_hsp(model, -1)


# Spin-J lattices J . d(k) on the maxwell coefficients, near and away from the closings at
# M = 0 and 2, where the plaquette sum of the outer bands aliases on unresolved meshes
SPIN_J_TABLE = [(j, c + s * e) for j in (1.5, 2.5, 3.5) for c in (0.0, 2.0) for s in (-1, 1)
                for e in (0.003, 0.01, 0.03, 0.0867, 0.2, 0.5)]


@pytest.mark.parametrize("j, m_param", SPIN_J_TABLE)
def test_spin_j_band_cherns_are_the_zone_degree(j, m_param):
    # band b carries C_b = -2 m_b deg, m_b = band_spin(b): the corner formula at every band,
    # from a coarse and a fine start mesh, with the gap |d| read off the spacing 1 of Jz
    model = replace(maxwell_lattice(1.0, m_param), generators=spin_matrices(j, "ladder"))
    spins = [model.band_spin(b) for b in range(model.band_count)]
    corners = [chern_from_hsp(model, m) for m in spins]
    for start in (8, 32):
        degree = zone_degree(model, start)
        assert [-2 * m * degree for m in spins] == corners


@pytest.mark.parametrize("model, grid, ceiling, message", [
    (maxwell_lattice(1.0, 1.0), 32, 1024, "ceiling must be an integer in 1..512, got 1024"),
    (chiral_ti_3d(2.0), 8, 128, "ceiling must be an integer in 1..64, got 128"),
    (chiral_ti_3d(2.0), 32, 16, "grid must be an integer in 1..8, got 32"),
    (maxwell_lattice(1.0, 1.0), 32, 0, "ceiling must be an integer in 1..512, got 0"),
    (maxwell_lattice(1.0, 1.0), 257, None, "grid must be an integer in 1..256, got 257"),
    (maxwell_lattice(1.0, 1.0), 512, None, "grid must be an integer in 1..256, got 512"),
    (chiral_ti_3d(2.0), 64, None, "grid must be an integer in 1..32, got 64"),
])
def test_zone_degree_refuses_a_mesh_above_its_ceiling(monkeypatch, model, grid, ceiling, message):
    # the default ceiling is the largest mesh of at most 2^18 points: 512^2 and 64^3, and a
    # start mesh above half the ceiling leaves no second mesh to agree with; both are refused
    # before any mesh is built
    built, real = [], invariants._zone_mesh
    monkeypatch.setattr(invariants, "_zone_mesh", lambda n, dim=2: built.append(n) or real(n, dim))
    with pytest.raises(ValueError) as info:
        zone_degree(model, grid, ceiling)
    assert str(info.value) == message
    assert built == []


@pytest.mark.parametrize("grid, ceiling", [(2, 4), (1, 2), (1, 1), (1, 4), (2, 7), (1, 7)])
def test_zone_degree_refuses_a_coarse_start_below_ceiling_8(monkeypatch, grid, ceiling):
    # meshes 1 and 2 are never agreed with, so a count from start 1 or 2 stops on mesh 8 at the
    # earliest: a lower ceiling is refused, naming both, before any mesh is built
    built, real = [], invariants._zone_mesh
    monkeypatch.setattr(invariants, "_zone_mesh", lambda n, dim=2: built.append(n) or real(n, dim))
    with pytest.raises(ValueError) as info:
        zone_degree(kane_mele_spin_sector(1.0, 0.06, 0.1, +1), grid, ceiling)
    assert str(info.value) == f"grid {grid} needs a ceiling of at least 8, got ceiling {ceiling}"
    assert built == []


@pytest.mark.parametrize("grid, ceiling", [(1, 8), (2, 8), (3, 6)])
def test_zone_degree_counts_from_a_coarse_start_at_the_least_ceiling(grid, ceiling):
    assert zone_degree(kane_mele_spin_sector(1.0, 0.06, 0.1, +1), grid, ceiling) == 1


NEAR_CRITICAL = [c + s * e for c in (-3.0, -1.0, 1.0, 3.0) for s in (-1, 1)
                 for e in (0.001, 0.01, 0.1)]


@pytest.mark.parametrize("m_param", NEAR_CRITICAL)
def test_winding_count_is_exact_near_transitions(monkeypatch, m_param):
    # meshes 8 and 16 both count the corner formula's integer exactly, and the
    # stop needs that agreement, not a distance below 0.05 from an integer.
    # Mesh 8 is read off mesh 16 on all three axes, bit-equal to a direct build.
    model = chiral_ti_3d(m_param)
    counts = []
    real = invariants._preimage_count

    def spy(d):
        assert np.array_equal(d, model.coeff(invariants._zone_mesh(len(d), 3)))
        counts.append((d.shape, real(d)))
        return counts[-1][1]

    monkeypatch.setattr(invariants, "_preimage_count", spy)
    expected = winding_from_hsp(model)
    assert winding_numerical(model, 40) == expected
    assert counts == [((8, 8, 8, 4), expected), ((16, 16, 16, 4), expected)]


@pytest.mark.parametrize("count, last", [
    # within 0.05 of an integer on every mesh: residual < 0.05 would pass it
    (lambda d: -1.04, "-1.04"),
    # an integer on every mesh, but never the same one twice in a row
    (lambda d: float(len(d).bit_length() % 2), "0.0"),
], ids=["near_integer", "alternating"])
def test_winding_stop_refuses_what_a_residual_bound_passes(monkeypatch, count, last):
    monkeypatch.setattr(invariants, "_preimage_count", count)
    with pytest.raises(ValueError) as info:
        winding_numerical(chiral_ti_3d(2.0), 40)
    assert str(info.value) == ("zone sum did not stabilize on an integer up to grid 40 "
                               f"(last {last})")


def test_winding_count_refines_up_to_the_grid_ceiling(monkeypatch):
    # a count that changes on every mesh is tried on 8, 16, 32 and 64 but
    # never above the ceiling; a ceiling under 16 leaves no second mesh and
    # is refused before any count
    grids = []
    monkeypatch.setattr(invariants, "_preimage_count", lambda d: grids.append(len(d)) or len(d))
    with pytest.raises(ValueError, match="integer up to grid 64 "):
        winding_numerical(chiral_ti_3d(2.0), 64)
    with pytest.raises(ValueError, match="grid must be an integer in 16..64, got 15"):
        winding_numerical(chiral_ti_3d(2.0), 15)
    assert grids == [8, 16, 32, 64]


def test_winding_memory_is_one_jacobian():
    # the count holds one (n^3, 4, 4) stack of tetrahedron cones at a time:
    # 0.5 MB at n = 16, where grid 60 stops (traced peak 1.5 MB)
    tracemalloc.start()
    try:
        winding_numerical(chiral_ti_3d(2.0), 60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6, f"traced peak {peak / 1e6:.1f} MB"


def test_winding_grid_zero_rejected():
    with pytest.raises(ValueError, match="grid must be an integer in 16..64, got 0"):
        winding_numerical(chiral_ti_3d(1.0), 0)


def test_winding_grid_above_the_ceiling_rejected():
    with pytest.raises(ValueError, match="grid must be an integer in 16..64, got 65"):
        winding_numerical(chiral_ti_3d(1.0), 65)


def test_winding_needs_3d():
    with pytest.raises(ValueError):
        winding_from_hsp(maxwell_lattice(1.0, 1.0))


# ---------------------------------------------------------------- Z2

def test_z2_reference_values():
    assert z2_kane_mele(kane_mele(1.0, 0.06, 0.0, 0.0)) == 1
    assert z2_kane_mele(kane_mele(1.0, 0.01, 0.0, 1.0)) == 0


def test_z2_equals_sector_chern_parity():
    rng = np.random.default_rng(99)
    checked = 0
    while checked < 15:
        lam_so = rng.uniform(0.03, 0.1)
        lam_v = rng.uniform(0.0, 0.45)
        if abs(lam_v - 3 * np.sqrt(3) * lam_so) < 0.03:
            continue
        checked += 1
        model = kane_mele(1.0, lam_so, 0.0, lam_v)
        assert z2_kane_mele(model) == z2_spin_chern_parity(model)


def test_compute_invariants_cross_checks_z2(monkeypatch):
    topological = kane_mele(1.0, 0.06, 0.0, 0.1)
    assert compute_invariants(topological).z2 == 1
    monkeypatch.setattr(invariants, "z2_spin_chern_parity", lambda model: 0)
    with pytest.raises(ValueError, match="valley index 1, sector Chern parity 0"):
        compute_invariants(topological)
    # with Rashba coupling only the valley index applies
    assert compute_invariants(kane_mele(1.0, 0.06, 0.05, 0.1)).z2 == 1


def test_z2_equals_parity_products_on_inversion_slice():
    rng = np.random.default_rng(100)
    for _ in range(10):
        lam_so = rng.uniform(0.03, 0.1)
        model = kane_mele(1.0, lam_so, 0.0, 0.0)
        assert z2_kane_mele(model) == z2_fu_kane_parity(model) == 1


def test_parity_oracle_requires_inversion_symmetry():
    with pytest.raises(ValueError, match="inversion"):
        z2_fu_kane_parity(kane_mele(1.0, 0.06, 0.0, 0.1))


def test_z2_gapless_transition_rejected():
    lam_so = 0.06
    lam_v = 3 * np.sqrt(3) * lam_so  # exactly on the phase boundary
    with pytest.raises(GaplessError):
        z2_kane_mele(kane_mele(1.0, lam_so, 0.0, lam_v))


@pytest.mark.parametrize("lambda_v", [0.1, 0.4], ids=["gapless", "gapped"])
def test_z2_refuses_t_zero_as_a_vanishing_valley_velocity(lambda_v):
    # at t = 0 the sector is d = (0, 0, m(k)): gapless on a line when |lambda_v| <
    # 3 sqrt(3) lambda_so, gapped beyond, and without a velocity at either valley
    model = kane_mele(0.0, 0.06, 0.0, lambda_v)
    message = ("vanishing velocity at K=(2.0943951023931953, 4.1887902047863905): "
               "smallest singular value of V 0.000e+00")
    for route in (z2_kane_mele, compute_invariants):
        with pytest.raises(NotHighSymmetryError) as info:
            route(model)
        assert str(info.value) == message


def test_z2_stable_along_rashba_ramp():
    ramp = rashba_gap_ramp(1.0, 0.06, 0.1, 0.05)
    gaps = [gap for _, gap in ramp]
    assert min(gaps) > 1e-3
    assert z2_kane_mele(kane_mele(1.0, 0.06, 0.05, 0.1)) == z2_kane_mele(
        kane_mele(1.0, 0.06, 0.0, 0.1)
    )


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("position, name", enumerate(["t", "lambda_so", "lambda_v",
                                                      "lambda_r_max"]))
def test_rashba_ramp_non_finite_argument_rejected(monkeypatch, position, name, value):
    # these used to reach the eigensolver and leak "Eigenvalues did not converge";
    # they are refused before anything is assembled
    monkeypatch.setattr(invariants, "evaluate", None)
    args = [1.0, 0.06, 0.1, 0.05]
    args[position] = value
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
        rashba_gap_ramp(*args)


# ---------------------------------------------------------------- dynamics link

@pytest.mark.parametrize("m_param", [-3.0, -1.0, 1.0, 3.0])
def test_rotation_sense_matches_local_index(m_param):
    # the central claim: packet rotation at each inversion point equals nu
    model = maxwell_lattice(1.0, m_param)
    spinor = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    for K in model.hsps:
        lin = linearize_at_hsp(model, K)
        packet = WavePacket(width=20.0, center=np.asarray(K), spinor=spinor)
        traj = wavepacket_trajectory(model, packet)
        assert rotation_index(traj) == lin.nu


@pytest.mark.parametrize("m_param, table", [(2.0, -1), (0.5, 2)])
def test_chiral_packet_rotation_reads_winding(m_param, table):
    # 3D counterpart: a c = 0 packet at each corner rotates in the xy plane
    # with sgn(v_x v_y m); weighting by sgn(v_z) = sgn(cos K_z) recovers the winding
    model = chiral_ti_3d(m_param)
    spinor = np.array([1.0, 1.0j, 0.0]) / np.sqrt(2.0)
    total = 0
    for K in model.hsps:
        lin = linearize_at_hsp(model, K)
        v_x, v_y, _ = lin.velocities
        packet = WavePacket(width=10.0, center=np.asarray(K), spinor=spinor)
        sense = rotation_index(wavepacket_trajectory(model, packet, (0.35, 21)))
        assert sense == int(np.sign(v_x * v_y * lin.mass))
        total += sense * int(np.sign(np.cos(K[2])))
    assert total % 2 == 0
    assert total // 2 == winding_from_hsp(model) == table


# ---------------------------------------------------------------- reports

def test_report_maxwell():
    report = compute_invariants(maxwell_lattice(1.0, 1.0))
    assert report.chern_hsp == (-2, 0, 2)
    assert report.chern_plaquette == (-2, 0, 2)
    assert report.winding is None and report.z2 is None
    assert len(report.hsp) == 4
    payload = report.to_dict()
    assert payload["chern_hsp"] == [-2, 0, 2]
    assert payload["hsp"][0]["nu"] == -1


def test_report_refuses_a_plaquette_sum_that_disagrees(monkeypatch):
    # the plaquette sum is the Chern numbers' second route: one band's sign
    # flipped must fail the report, not be printed beside the corner formula
    real = invariants.chern_plaquette

    def flipped(model, bands, grid):
        values = real(model, bands, grid)
        return (-values[0],) + values[1:]

    monkeypatch.setattr(invariants, "chern_plaquette", flipped)
    with pytest.raises(ValueError) as info:
        compute_invariants(maxwell_lattice(1.0, 1.0))
    assert str(info.value) == ("Chern cross-check failed: corner formula (-2, 0, 2), "
                               "plaquette sum (2, 0, 2)")


def test_report_chiral():
    report = compute_invariants(chiral_ti_3d(2.0), winding_grid=20)
    assert report.winding == -1
    assert report.to_dict()["winding_residual"] == 0.0
    assert report.chern_hsp is None and report.z2 is None


def test_report_kane_mele():
    report = compute_invariants(kane_mele(1.0, 0.06, 0.0, 0.1))
    assert report.z2 == 1
    assert report.hsp == ()


def test_report_spin_j():
    report = compute_invariants(spin_j_continuum(1.0, 1.0, 1.0, 0.5))
    assert len(report.hsp) == 1
    assert report.chern_hsp is None
