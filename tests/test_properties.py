"""Property tests of the closed-form odd-herald model over random cavities.

Draws rate sets (the kappa split, gamma, detunings), alpha^2 grids in
[0, 3] and physical losses in [0, 1], and checks invariants that hold by
construction: nonnegative populations that never sum above one, parity
purity in the ideal limit, the once-per-call truncation warning, density
matrices from the matrix path whose diagonal is the population path, the
Kraus map equal to the closed form on coherent inputs, and energy
conservation of the branch amplitudes.  The loss channel is drawn over
random states: loss channels compose, the inverse channel undoes one, and
the tomography POVM's efficiency map is its adjoint.
The HBT click distribution is drawn over random photon-number
distributions, detector efficiencies and dark-click probabilities.
"""

import math
import warnings

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from photondistill.cavity import CavityParams, branch_amplitudes
from photondistill.distillation import (
    BRANCH_PROB_FLOOR,
    ODD,
    DistillationConfig,
    _coherent_branches,
    _error_mix,
    distill_coherent,
    distill_general,
    distilled_populations,
    distilled_state,
    parity_probabilities,
)
from photondistill.errors import EmptyBranchError
from photondistill.fockspace import DensityMatrix, _loss_map, coherent_state, pure_loss_channel
from photondistill.photonstats import _click_outcomes
from photondistill.tomography import _efficiency_adjusted

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True, database=None)

unit = st.floats(0.0, 1.0)


@st.composite
def cavities(draw):
    return CavityParams.from_decays(
        g=draw(st.floats(0.0, 20.0)),
        kappa_r=draw(st.floats(0.05, 5.0)),
        kappa_t=draw(st.floats(0.0, 2.0)),
        kappa_m=draw(st.floats(0.0, 2.0)),
        gamma=draw(st.floats(0.05, 6.0)),
        delta_a=draw(st.floats(-8.0, 8.0)),
        delta_c=draw(st.floats(-4.0, 4.0)),
    )


@st.composite
def states(draw, max_dim=24):
    """Random full-rank density matrix: normalized A A^dag for complex Gaussian A."""
    dim = draw(st.integers(2, max_dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    M = A @ A.conj().T
    return DensityMatrix(dim, M / np.trace(M))


def odd_herald_populations(params, grid, loss, loss_out, eps, dim):
    """Error-mixed odd-herald populations of the closed-form core, NaN where empty."""
    pops, p_herald, empty = _error_mix(ODD, eps, *_coherent_branches(params, grid, loss, loss_out,
                                                                      dim))
    pops[empty] = np.nan
    return pops, p_herald


alpha_sq_grids = st.lists(st.floats(0.0, 3.0), min_size=1, max_size=12).map(np.array)


@SETTINGS
@given(cavities(), alpha_sq_grids, unit, unit, st.floats(0.0, 0.5),
       st.integers(2, 24))
# no coupling: equal branches, whose overlap exponent must be exactly 0
@example(CavityParams.from_decays(g=0.0, kappa_r=1.0, kappa_t=0.0, kappa_m=0.0, gamma=1.0,
                                  delta_c=1.5), np.array([1.0]), 0.0, 0.0, 0.0, 2)
def test_populations_nonnegative_and_subnormalized(params, grid, loss, residual, eps, dim):
    # the mixed branches at any transmission up to the physical one
    loss_out = loss * residual
    pops, p_herald = odd_herald_populations(params, grid, loss, loss_out, eps, dim)
    assert pops.shape == (len(grid), dim)
    assert np.all((p_herald >= 0.0) & (p_herald <= 1.0))
    finite = pops[~np.isnan(pops).any(axis=1)]
    # rounding of the odd-parity difference can leave -1e-16 where 0 is exact
    assert np.all(finite >= -1e-14)
    assert np.all(finite.sum(axis=1) <= 1.0 + 1e-12)


@SETTINGS
@given(st.floats(0.1, 5.0), st.floats(0.1, 6.0), st.floats(-8.0, 8.0),
       alpha_sq_grids, st.integers(2, 24))
def test_odd_herald_is_parity_pure_in_ideal_limit(kappa_r, gamma, delta_a, grid, dim):
    # lossless, over-coupled and resonant cavity with g >> kappa, gamma: the
    # empty-cavity branch reflects with -1 and the coupled one with +1
    params = CavityParams.from_decays(g=1e7, kappa_r=kappa_r, kappa_t=0.0, kappa_m=0.0,
                                      gamma=gamma, delta_a=delta_a)
    pops, _ = odd_herald_populations(params, grid, 0.0, 0.0, 0.0, dim)
    empty = np.isnan(pops).any(axis=1)  # below the herald floor, alpha^2 = 0 included
    assert np.all(empty[grid == 0.0])
    assert np.all(np.abs(pops[~empty, 0::2]) < 1e-12)


@SETTINGS
@given(cavities(), st.floats(0.0, 12.0), unit, unit, st.integers(2, 24), st.booleans())
# a subnormal alpha^2: the empty odd branch is divided by a subnormal trace
@example(CavityParams.from_decays(g=1.0, kappa_r=1.0, kappa_t=0.0, kappa_m=0.0, gamma=1.0),
         2.2250738585e-313, 0.0, 0.0, 2, False)
def test_truncation_warning_fires_once_exactly_above_dim_over_4(
    params, alpha_sq, uncorrected, downstream, dim, corrected
):
    config = DistillationConfig(params=params, uncorrected_loss=uncorrected,
                                downstream_loss=downstream)
    loss_out = uncorrected if corrected else config.total_loss
    largest_r = max(abs(branch_amplitudes(params, up, 1.0).r) ** 2 for up in (True, False))
    nbar = (1.0 - loss_out) * alpha_sq * largest_r
    assume(abs(nbar - dim / 4) > 1e-9)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            distilled_state(config, math.sqrt(alpha_sq), dim=dim, corrected=corrected)
        except EmptyBranchError:
            pass
    assert len(caught) == (1 if nbar > dim / 4 else 0)


@SETTINGS
@given(cavities(),
       st.sampled_from([0.3, 3.0, 40.0]).flatmap(
           lambda top: st.lists(st.floats(0.0, top), min_size=1, max_size=12)).map(np.array),
       unit, unit, st.floats(0.0, 0.5), st.booleans())
@example(CavityParams.from_decays(g=1e7, kappa_r=2.5, kappa_t=0.0, kappa_m=0.0, gamma=3.0),
         np.array([1e-9, 40.0]), 0.0, 0.0, 0.0, False)
# weak coupling, P_odd = 1.4e-3: the level count needs the 1/P_odd of the bound
@example(CavityParams.from_decays(g=0.3, kappa_r=1.0, kappa_t=0.5, kappa_m=0.5, gamma=1.0,
                                  delta_a=2.0), np.array([0.3]), 0.0, 0.0, 0.01, False)
def test_population_path_drops_less_than_1e_15(
    params, grid, uncorrected, downstream, eps, corrected
):
    # The mass the population path leaves out, read off the same closed form
    # on 200 more levels, whose first ones agree bit for bit.  1 - sum(p_n)
    # itself also holds the rounding of the populations, which grows with
    # alpha^2 to ~2e-15 at alpha^2 = 40.
    config = DistillationConfig(params=params, detection_error=eps,
                                uncorrected_loss=uncorrected, downstream_loss=downstream)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pops, _ = distilled_populations(config, grid, corrected=corrected)
    loss_out = uncorrected if corrected else config.total_loss
    levels = pops.shape[1]
    more, _, _ = _error_mix(ODD, eps, *_coherent_branches(
        params, grid, config.total_loss, loss_out, levels + 200))
    finite = ~np.isnan(pops).any(axis=1)
    np.testing.assert_array_equal(pops[finite], more[finite, :levels])
    assert np.all(more[finite, levels:].sum(axis=1) <= 1e-15)


@SETTINGS
@given(cavities(), st.floats(0.0, 3.0), unit, unit, st.floats(0.0, 0.5), st.integers(2, 24),
       st.booleans())
def test_distilled_state_is_a_density_matrix_on_the_closed_form_diagonal(
    params, alpha_sq, uncorrected, downstream, eps, dim, corrected
):
    config = DistillationConfig(params=params, detection_error=eps,
                                uncorrected_loss=uncorrected, downstream_loss=downstream)
    pops, _ = distilled_populations(config, alpha_sq, corrected=corrected)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # truncation at small dim
        for parity in ("odd", "even"):
            try:
                rho, _ = distilled_state(config, math.sqrt(alpha_sq), parity, dim, corrected)
            except EmptyBranchError:
                assert parity != ODD or np.isnan(pops[0]).all()
                continue
            rho.validate()
    if not np.isnan(pops[0]).any():
        # on as many levels as the population path, the truncation drops < 1e-15
        levels = pops.shape[1]
        rho, _ = distilled_state(config, math.sqrt(alpha_sq), ODD, levels, corrected)
        np.testing.assert_allclose(rho.populations(), pops[0], rtol=0, atol=1e-12)


@SETTINGS
@given(cavities(), st.floats(0.01, 2.0), unit, unit, st.booleans(),
       st.sampled_from(["odd", "even"]))
def test_kraus_map_equals_closed_form_on_coherent_inputs(
    params, alpha_sq, uncorrected, downstream, corrected, parity
):
    config = DistillationConfig(params=params, uncorrected_loss=uncorrected,
                                downstream_loss=downstream)
    alpha = math.sqrt(alpha_sq)
    p_odd, p_even = parity_probabilities(config, alpha)
    assume(min(p_odd, p_even) > BRANCH_PROB_FLOOR)
    # the compared states live in the first 24 levels; an input cut at 24
    # would drop its elements <m|rho|24> ~ 1e-9 that feed level 23, so it
    # gets 8 levels of headroom (amplitude < 2e-13 beyond them at alpha^2 <= 2)
    dim = 24
    general, prob = distill_general(coherent_state(alpha, dim + 8).density_matrix(), config,
                                    parity, corrected)
    closed = distill_coherent(config, alpha, parity, dim, corrected)
    assert np.max(np.abs(general.elements[:dim, :dim] - closed.elements)) < 1e-10
    assert abs(prob - (p_odd if parity == ODD else p_even)) < 1e-10


@SETTINGS
@given(cavities(), st.booleans(), st.complex_numbers(max_magnitude=3.0))
def test_branch_amplitudes_conserve_energy(params, coupled, alpha):
    branch = branch_amplitudes(params, coupled, alpha)
    assert abs(branch.total_power - abs(alpha) ** 2) <= 1e-12


@SETTINGS
@given(states(), unit, unit)
def test_loss_channels_compose(rho, t1, t2):
    twice = pure_loss_channel(pure_loss_channel(rho, t1), t2)
    once = pure_loss_channel(rho, t1 * t2)
    assert np.max(np.abs(twice.elements - once.elements)) <= 1e-12


@SETTINGS
@given(states(max_dim=12), st.floats(0.5, 1.0))
def test_inverse_loss_channel_undoes_loss(rho, transmission):
    # the inverse amplifies rounding by up to (1/T)^(dim-1) = 2^11 here
    back = _loss_map(_loss_map(rho.elements, transmission), 1.0 / transmission)
    assert np.max(np.abs(back - rho.elements)) <= 1e-11


@SETTINGS
@given(states(max_dim=16), st.floats(0.01, 1.0), st.integers(0, 2**32 - 1))
def test_efficiency_adjusted_povm_is_the_adjoint_of_loss(rho, efficiency, seed):
    # Tr(G L(rho)) = Tr(L^dag(G) rho) for real symmetric G, like the bin matrices
    G = np.random.default_rng(seed).normal(size=(3, rho.dim, rho.dim))
    G = G + G.transpose(0, 2, 1)
    want = np.einsum("lmn,nm->l", G, pure_loss_channel(rho, efficiency).elements)
    got = np.einsum("lmn,nm->l", _efficiency_adjusted(G, efficiency), rho.elements)
    assert np.max(np.abs(got - want)) <= 1e-12


@SETTINGS
@given(st.lists(unit, min_size=1, max_size=30).filter(lambda p: sum(p) > 0), unit, unit)
def test_click_outcomes_are_a_distribution(weights, efficiency, dark_probability):
    populations = np.array(weights) / sum(weights)
    silent, alone, both = _click_outcomes(populations, efficiency, dark_probability)
    assert min(silent, alone, both) >= 0.0
    # arm 2 alone is as likely as arm 1 alone
    assert abs(silent + 2.0 * alone + both - 1.0) <= 1e-12
