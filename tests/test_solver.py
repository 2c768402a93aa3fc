import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.fft import dst
from scipy.sparse.linalg import splu

from phaselab.energy import (
    ScalarField,
    half_space_energy,
    standard_potential,
)
from dataclasses import fields

from phaselab.grid import (Grid, NeumannZero, face_radii, half_space_roles,
                           make_half_space_grid)
from phaselab.solver import (
    _AXIS_KINDS,
    _DirichletProblem,
    DENSE_AXIS_MAX,
    LINEAR_RTOL,
    InvalidBoundaryError,
    NonConvergenceError,
    SolveConfig,
    boundary_extension,
    comparison_check,
    residual_field,
    solve_half_space,
    uniqueness_check,
)

P = standard_potential()


def exp_base(xs, amp=0.5, support=6.0):
    r = np.abs(xs)
    out = np.zeros_like(r)
    ins = r < support
    t = (r[ins] / support) ** 2
    out[ins] = amp * np.exp(-r[ins]) * np.exp(1.0 - 1.0 / (1.0 - t))
    return out


def exact_1d_energy(v0):
    """Closed form of the half-line energy for trace 1 + v0: the optimal
    profile satisfies v' = -v (2 + v)/sqrt(2), so F = (v0^2 + v0^3/3)/sqrt(2)."""
    return (v0 ** 2 + v0 ** 3 / 3.0) / math.sqrt(2.0)


def exact_1d_profile(v0, x):
    q = v0 / (v0 + 2.0) * np.exp(-math.sqrt(2.0) * x)
    return 1.0 + 2.0 * q / (1.0 - q)


def test_zero_data_constant_minimizer():
    g, _ = make_half_space_grid(1, 8.0, 0.125, 1.0)
    res = solve_half_space(np.asarray(0.0), 1.0, P, g, SolveConfig())
    assert res.iterations == 0
    assert res.final_energy == 0.0
    assert np.array_equal(res.field.values, np.ones(g.shape))


@pytest.mark.parametrize("v0", [0.5, 2.0])
def test_1d_pointwise_oracle(v0):
    g, _ = make_half_space_grid(1, 16.0, 1 / 64, 1.0)
    res = solve_half_space(np.asarray(v0), 1.0, P, g,
                           SolveConfig(residual_tol=1e-10))
    exact = exact_1d_profile(v0, g.axis_coords(0))
    assert np.max(np.abs(res.field.values - exact)) <= 2e-3 * v0 ** 2
    assert res.residual <= 1e-10


def test_1d_energy_converges_to_exact():
    v0 = 2.0
    errs = []
    for div in (32, 64, 128):
        g, _ = make_half_space_grid(1, 16.0, 1.0 / div, 1.0)
        res = solve_half_space(np.asarray(v0), 1.0, P, g,
                               SolveConfig(residual_tol=1e-10))
        errs.append(abs(res.final_energy - exact_1d_energy(v0)))
    assert errs[2] < errs[1] < errs[0]
    # the quadrature bias is first order in the spacing
    assert errs[2] <= 0.6 * errs[1]


def test_1d_energy_orders_against_the_closed_form():
    # trace u0 = 4.4: F_unit (full weight on the data-face node, one-sided
    # face gradient) converges at first order; the link energy that the
    # solver minimizes, with the data-face W at half weight (trapezoid
    # rule), at second order
    v0 = 3.4
    exact = exact_1d_energy(v0)
    f_unit, link_half = [], []
    for div in (8, 16, 32, 64):
        g, _ = make_half_space_grid(1, 20.0, 1.0 / div, 1.0)
        res = solve_half_space(np.asarray(v0), 1.0, P, g,
                               SolveConfig(residual_tol=1e-10))
        u, h = res.field.values, g.spacing
        link = (0.5 * float(np.sum(np.diff(u) ** 2)) / h
                + h * (float(np.sum(P.value(u))) - 0.5 * P.value(u[0])))
        f_unit.append(res.final_energy - exact)
        link_half.append(link - exact)
    for errs, order in ((f_unit, 1.0), (link_half, 2.0)):
        orders = [math.log2(abs(e0 / e1)) for e0, e1 in zip(errs, errs[1:])]
        assert all(abs(q - order) <= 0.1 for q in orders[-2:]), orders


def test_monotone_energy_trace():
    g, _ = make_half_space_grid(2, 6.0, 0.125, 1.0)
    h = 2.0 * exp_base(g.axis_coords(0))
    res = solve_half_space(h, 1.0, P, g, SolveConfig(residual_tol=1e-9))
    tr = np.asarray(res.energy_trace)
    slack = 10 * np.finfo(float).eps * np.maximum(1.0, np.abs(tr[:-1]))
    assert np.all(np.diff(tr) <= slack)


def test_boundary_nodes_pinned_exactly():
    g, _ = make_half_space_grid(2, 6.0, 0.25, 1.0)
    h = exp_base(g.axis_coords(0))
    res = solve_half_space(h, 1.0, P, g, SolveConfig())
    u = res.field.values
    assert np.array_equal(u[:, 0], 1.0 + h)
    assert np.all(u[:, -1] == 1.0)
    assert np.all(u[0, :] == 1.0)
    assert np.all(u[-1, :] == 1.0)


def test_range_preservation_and_envelope():
    g, _ = make_half_space_grid(2, 8.0, 0.125, 1.0)
    h = 2.0 * exp_base(g.axis_coords(0))      # 0 <= h <= e^-|x|
    cfg = SolveConfig(residual_tol=1e-8)
    res = solve_half_space(h, 1.0, P, g, cfg)
    u = res.field.values
    assert u.min() >= 1.0 - cfg.residual_tol
    envelope = 1.0 + np.exp(-g.node_radii()) + 2.0 * g.spacing
    assert np.max(u - envelope) <= 0.0


def test_energy_bound_against_extension():
    g, _ = make_half_space_grid(2, 6.0, 0.125, 1.0)
    h = 2.0 * exp_base(g.axis_coords(0))
    res = solve_half_space(h, 1.0, P, g, SolveConfig())
    ext = ScalarField(g, boundary_extension(g, 1.0 + h, 1.0), res.field.roles)
    assert res.final_energy <= half_space_energy(ext)


def test_residual_field_trivial_and_contract():
    g, roles = make_half_space_grid(2, 6.0, 0.25, 1.0)
    ones = ScalarField(g, np.ones(g.shape), roles)
    assert not residual_field(ones, P).values.any()
    h = exp_base(g.axis_coords(0))
    cfg = SolveConfig(residual_tol=1e-8)
    res = solve_half_space(h, 1.0, P, g, cfg)
    r = residual_field(res.field, P)
    assert np.max(np.abs(r.values)) <= cfg.residual_tol
    # faces excluded
    assert not r.values[:, 0].any() and not r.values[0, :].any()


def test_residual_supersolution_sign():
    # the explicit barrier is a discrete supersolution away from the origin:
    # -lap(psi) + W'(psi) >= -O(h^2)
    from phaselab.energy import barrier_profile
    g = Grid((61, 61), 0.1, (1.0, 1.0))
    psi, _, _ = barrier_profile(g)
    u = ScalarField(g, psi, {(a, s): NeumannZero() for a in range(2)
                             for s in ("low", "high")})
    r = residual_field(u, P).values[1:-1, 1:-1]
    assert r.min() >= -1e-3


def test_uniqueness_checks():
    g, _ = make_half_space_grid(2, 6.0, 0.25, 1.0)
    x = g.axis_coords(0)
    assert uniqueness_check(np.zeros(g.shape[0]), P, g, SolveConfig())
    rep = uniqueness_check(2.0 * exp_base(x), P, g,
                           SolveConfig(residual_tol=1e-9))
    assert rep.status == "unique"
    assert rep.sup_difference <= rep.tolerance
    signed = exp_base(x) * np.sign(np.sin(3 * x))
    rep2 = uniqueness_check(signed, P, g, SolveConfig())
    assert rep2.status == "not_applicable"
    assert not rep2


def test_comparison_check():
    g, _ = make_half_space_grid(2, 6.0, 0.125, 1.0)
    h = exp_base(g.axis_coords(0))
    cfg = SolveConfig(residual_tol=1e-9)
    r1 = comparison_check(1.0, h, P, g, cfg)
    assert r1.passed
    assert abs(r1.max_violation) <= r1.tolerance
    r4 = comparison_check(4.0, h, P, g, cfg)
    assert r4.passed
    assert r4.max_violation <= r4.tolerance
    # decay transfer evaluated for enveloped data
    assert r4.decay_max_violation is not None
    assert r4.decay_max_violation <= 0.0
    with pytest.raises(ValueError):
        comparison_check(0.5, h, P, g, cfg)


def test_non_convergence_flags_best_iterate():
    g, _ = make_half_space_grid(2, 6.0, 0.25, 1.0)
    h = 6.0 * exp_base(g.axis_coords(0))
    with pytest.raises(NonConvergenceError) as err:
        solve_half_space(h, 1.0, P, g,
                         SolveConfig(residual_tol=1e-12, max_iterations=1))
    best = err.value.result
    assert not best.converged
    assert best.residual > 1e-12
    assert best.field.values.shape == g.shape


def test_invalid_boundary():
    g, _ = make_half_space_grid(2, 6.0, 0.25, 1.0)
    bad = np.full(g.shape[0], np.nan)
    with pytest.raises(InvalidBoundaryError):
        solve_half_space(bad, 1.0, P, g, SolveConfig())
    with pytest.raises(InvalidBoundaryError):
        solve_half_space(np.zeros(5), 1.0, P, g, SolveConfig())


@pytest.mark.parametrize("far", [math.nan, math.inf, -math.inf])
def test_a_non_finite_far_value_is_rejected_before_any_work(far, monkeypatch):
    import phaselab.solver as solver_mod
    monkeypatch.setattr(solver_mod, "boundary_extension", None)
    monkeypatch.setattr(solver_mod, "_DirichletProblem", None)
    g, _ = make_half_space_grid(2, 6.0, 0.25, 1.0)
    with pytest.raises(InvalidBoundaryError, match="far_value"):
        solve_half_space(exp_base(g.axis_coords(0)), far, P, g, SolveConfig())


def test_warm_start_from_a_solution_takes_no_iteration():
    g, _ = make_half_space_grid(2, 6.0, 0.125, 1.0)
    h = 2.0 * exp_base(g.axis_coords(0))
    cfg = SolveConfig(residual_tol=1e-9)
    res = solve_half_space(h, 1.0, P, g, cfg)
    warm = solve_half_space(h, 1.0, P, g, cfg, initial=res.field.values)
    assert warm.iterations == 0 and warm.converged
    assert np.array_equal(warm.field.values, res.field.values)


@pytest.mark.parametrize("shape", [(5, 5), (49, 24), (49,)])
def test_initial_of_the_wrong_shape_is_rejected(shape):
    g, _ = make_half_space_grid(2, 6.0, 0.25, 1.0)
    with pytest.raises(ValueError, match="initial"):
        solve_half_space(np.zeros(g.shape[0]), 1.0, P, g, SolveConfig(),
                         initial=np.ones(shape))


def test_solve_config_holds_only_the_stopping_rule():
    assert [f.name for f in fields(SolveConfig)] == ["residual_tol",
                                                     "max_iterations"]


def test_truncation_stability():
    # doubling the truncation radius moves the energy by less than the
    # explicit tail bound plus 1% relative
    from phaselab.grid import tail_bound
    theta = 2.0
    cfg = SolveConfig(residual_tol=1e-10)
    energies = {}
    for R in (6.0, 12.0):
        g, _ = make_half_space_grid(1, R, 1 / 32, 1.0)
        res = solve_half_space(np.asarray(theta * 0.5), 1.0, P, g, cfg)
        energies[R] = res.final_energy
    change = abs(energies[12.0] - energies[6.0])
    allowance = tail_bound(1, 6.0, theta) + 0.01 * energies[6.0]
    assert change <= allowance


def _problem(n, R, spacing, folded=False):
    """The problem on the half-space grid, or with ``folded`` on its mirror
    half: nodes 0..M of every tangential axis, the centre M a NeumannZero
    layer."""
    g, _ = make_half_space_grid(n, R, spacing, 1.0)
    if folded:
        g = Grid(tuple(m // 2 + 1 for m in g.shape[:-1]) + g.shape[-1:],
                 g.spacing, g.origin)
    roles = half_space_roles(g)
    for a in range(n - 1 if folded else 0):
        roles[(a, "high")] = NeumannZero()
    return _DirichletProblem(g, roles, P)


# 1D, a non-square 2D interior (31 x 15) and a 3D interior (15 x 15 x 7)
INTERIORS = [(1, 4.0, 0.125), (2, 4.0, 0.25), (3, 2.0, 0.25)]
# the same 2D and 3D problems folded: 16 x 15 and 8 x 8 x 7 unknowns
PROBLEMS = ([pytest.param(*i, False, id="-".join(map(str, i)))
             for i in INTERIORS]
            + [pytest.param(*i, True, id="-".join(map(str, i)) + "-folded")
               for i in INTERIORS if i[0] > 1])
# every axis above is dense; these reach scipy.fft's long path: a 1D
# interior of DENSE_AXIS_MAX + 1 nodes, and a 2D one whose normal axis of
# DENSE_AXIS_MAX nodes is dense and whose tangential axis is long, with
# 2 DENSE_AXIS_MAX + 1 nodes, or DENSE_AXIS_MAX + 1 folded
LONG = [(1, (DENSE_AXIS_MAX + 2) / 16, 1 / 16),
        (2, (DENSE_AXIS_MAX + 1) / 16, 1 / 16)]
LONG_PROBLEMS = ([pytest.param(*i, False, id=f"{i[0]}d-long") for i in LONG]
                 + [pytest.param(*LONG[1], True, id="2d-long-folded")])


def _handed_to_cg(prob, w2, rhs, rtol, monkeypatch):
    """Run ``prob.newton_solve``; return its result, the arguments
    ``(matvec, b, rtol, psolve)`` it handed to its one ``cg`` call and that
    call's ``(x, info)``."""
    import phaselab.solver as solver_mod
    calls = []
    cg = solver_mod.cg
    monkeypatch.setattr(solver_mod, "cg",
                        lambda *a: calls.append((a, cg(*a))) or calls[-1][1])
    x = prob.newton_solve(w2, rhs, rtol)
    monkeypatch.setattr(solver_mod, "cg", cg)
    (args, result), = calls
    return x, args, result


@pytest.mark.parametrize("n, R, spacing, folded", PROBLEMS)
def test_matrix_free_operator_matches_sparse_matrix(n, R, spacing, folded,
                                                    monkeypatch):
    # A v by matvec, and (A + diag(d)) v by the operator that newton_solve
    # hands to cg, for d = max(W'', 0) zero at every node and random; on a
    # folded problem A is the symmetric D A D^-1
    prob = _problem(n, R, spacing, folded)
    m = math.prod(prob.int_shape)       # unknowns
    A = prob.sparse_matrix()
    assert abs(A - A.T).max() == 0.0
    rng = np.random.default_rng(20 + n)
    v = rng.standard_normal(m)
    cases = [(lambda v: prob.matvec(v, prob.centre), np.zeros(m))]
    for w2 in (-np.ones(m), rng.uniform(-1.0, 66.0, m)):
        _, (matvec, *_), _ = _handed_to_cg(prob, w2, v, LINEAR_RTOL,
                                           monkeypatch)
        cases.append((matvec, np.maximum(w2, 0.0)))
    for op, d in cases:
        exact = (prob.sparse_matrix() + sp.diags(d)) @ v
        assert np.max(np.abs(op(v) - exact)) <= 1e-13 * np.max(np.abs(exact))


@pytest.mark.parametrize("n, R, spacing", INTERIORS)
def test_solver_residual_is_residual_field(n, R, spacing):
    prob = _problem(n, R, spacing)
    g = prob.grid
    vals = 1.0 + np.random.default_rng(30 + n).uniform(-0.5, 0.5, g.shape)
    u = ScalarField(g, vals, prob.roles)
    inner = tuple(slice(1, -1) for _ in g.shape)
    assert np.array_equal(prob.residual(vals),
                          residual_field(u, P).values[inner].ravel())


@pytest.mark.parametrize("n, R, spacing, folded", PROBLEMS + LONG_PROBLEMS)
@pytest.mark.parametrize("shift", [0.0, 3.0])
def test_shifted_solve_matches_sparse_direct(n, R, spacing, folded, shift):
    prob = _problem(n, R, spacing, folded)
    m = math.prod(prob.int_shape)       # unknowns
    rhs = np.random.default_rng(n).standard_normal(m)
    op = (prob.sparse_matrix() + shift * sp.identity(m)).tocsc()
    exact = splu(op).solve(rhs)
    x = prob.shifted_solve(shift, rhs)
    assert np.max(np.abs(x - exact)) <= 1e-12 * np.max(np.abs(exact))


@pytest.mark.parametrize("n, R, spacing", INTERIORS[1:])
@pytest.mark.parametrize("shift", [0.0, 3.0])
def test_folded_shifted_solve_is_the_full_solve_of_mirrored_data(
        n, R, spacing, shift):
    # (s I + A) x = r on the folded half, through y = D x, against the
    # full DST-I solve of a right-hand side that is mirror-symmetric about
    # the centre of every tangential axis
    full, half = _problem(n, R, spacing), _problem(n, R, spacing, True)
    assert half.folded == tuple(range(n - 1))
    rhs = np.random.default_rng(70 + n).standard_normal(full.int_shape)
    for a in half.folded:
        rhs = rhs + np.flip(rhs, a)
    x = full.shifted_solve(shift, rhs.ravel()).reshape(full.int_shape)
    part = tuple(slice(0, k) for k in half.int_shape)
    x_half = half.unweigh(half.shifted_solve(
        shift, half.weigh(rhs[part].ravel()))).reshape(half.int_shape)
    assert np.max(np.abs(x_half - x[part])) <= 1e-13 * np.max(np.abs(x))


@pytest.mark.parametrize("roles", list(_AXIS_KINDS))
def test_each_axis_kind_diagonalizes_its_dense_1d_operator(roles):
    # the 1D second difference of k unknowns between the two faces: the
    # mirror row of a NeumannZero high face reads -2 u[k-2]; D = 1/sqrt(2)
    # on that layer makes D T D^-1 symmetric
    t, angles, matrix = _AXIS_KINDS[roles]
    for k in [*range(2, 18), DENSE_AXIS_MAX]:
        T = 2.0 * np.eye(k) - np.eye(k, k=1) - np.eye(k, k=-1)
        d = np.ones(k)
        if roles[1] is NeumannZero:
            T[-1, -2] = -2.0
            d[-1] = 1.0 / math.sqrt(2.0)
        S = d[:, None] * T / d[None, :]
        assert np.max(np.abs(S - S.T)) <= 1e-15
        # the columns of Q are the orthonormal transform of the unit vectors,
        # and the row's closed form is that matrix
        Q = matrix(k)
        assert np.max(np.abs(
            Q - dst(np.eye(k), type=t, norm="ortho", axis=0))) <= 1e-13
        assert np.max(np.abs(Q @ Q.T - np.eye(k))) <= 1e-13
        lam = 2.0 - 2.0 * np.cos(angles(k))
        assert np.max(np.abs(Q @ S @ Q.T - np.diag(lam))) <= 1e-13


@pytest.mark.parametrize("case, folded, dense, calls", [
    (INTERIORS[1], False, (0, 1), 0), (INTERIORS[1], True, (0, 1), 0),
    (INTERIORS[2], True, (0, 1, 2), 0), (LONG[0], False, (), 1),
    (LONG[1], False, (1,), 1), (LONG[1], True, (1,), 1),
    ((2, (DENSE_AXIS_MAX + 2) / 16, 1 / 16), False, (), 1),
    ((2, (DENSE_AXIS_MAX + 2) / 16, 1 / 16), True, (), 2)],
    ids=["2d", "2d-folded", "3d-folded", "1d-long", "2d-mixed",
         "2d-mixed-folded", "2d-long", "2d-long-folded"])
def test_shifted_solve_transforms_once_per_dst_type(case, folded, dense,
                                                    calls, monkeypatch):
    # a matrix product per axis of at most DENSE_AXIS_MAX unknowns, and no
    # scipy.fft call unless an axis is longer; the long axes take one dstn
    # and one idstn per DST type present, however many axes it spans: each
    # call costs tens of microseconds of dispatch, and the Newton
    # preconditioner solves once per CG iteration
    import scipy.fft
    prob = _problem(*case, folded)
    assert len(prob.folded) == (case[0] - 1 if folded else 0)
    assert tuple(a for a, _ in prob.dense) == dense
    counts = {"dstn": 0, "idstn": 0}
    for name in counts:
        def counted(*args, name=name, transform=getattr(scipy.fft, name),
                    **kwargs):
            counts[name] += 1
            return transform(*args, **kwargs)
        monkeypatch.setattr(scipy.fft, name, counted)
    prob.shifted_solve(1.0, np.ones(math.prod(prob.int_shape)))
    assert counts == {"dstn": calls, "idstn": calls}


@pytest.mark.parametrize("n, R, spacing, folded", PROBLEMS + LONG_PROBLEMS)
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_shifted_solve_leaves_its_right_hand_side_unchanged(
        n, R, spacing, folded, dtype):
    # the transforms may work in place on an array of their own, never on
    # the caller's (astype(copy=False) passes a float64 rhs through)
    prob = _problem(n, R, spacing, folded)
    rhs = np.random.default_rng(40 + n).standard_normal(
        math.prod(prob.int_shape))
    kept = rhs.copy()
    prob.shifted_solve(2.0, rhs, dtype)
    assert np.array_equal(rhs, kept)


def test_a_face_role_pair_without_a_transform_is_rejected():
    g = Grid((5, 5), 0.25, (0.0, 0.0))
    roles = half_space_roles(g)
    roles[(0, "low")] = NeumannZero()
    with pytest.raises(ValueError,
                       match=r"axis 0: .*\(NeumannZero, Dirichlet\)"):
        _DirichletProblem(g, roles, P)


@pytest.mark.parametrize("n, R, spacing", INTERIORS + LONG)
def test_newton_cg_matches_sparse_direct(n, R, spacing):
    prob = _problem(n, R, spacing)
    m = math.prod(prob.int_shape)       # unknowns
    rng = np.random.default_rng(10 + n)
    rhs = rng.standard_normal(m)
    # W'' of the standard well ranges over [-1, 66] for u in [-1, 5]
    w2 = rng.uniform(-1.0, 66.0, m)
    H = (prob.sparse_matrix() + sp.diags(np.maximum(w2, 0.0))).tocsc()
    exact = splu(H).solve(rhs)
    rtol = LINEAR_RTOL
    x = prob.newton_solve(w2, rhs, rtol)
    assert np.linalg.norm(H @ x - rhs) <= rtol * np.linalg.norm(rhs)
    # the error is at most cond(H) times the relative residual; cond(H) is
    # below 1e3 on these interiors
    assert np.linalg.norm(x - exact) <= 1e3 * rtol * np.linalg.norm(exact)


def _scipy_newton_cg(matvec, psolve, rhs, rtol):
    """SciPy's cg on LinearOperators over the operator and preconditioner
    callables that newton_solve hands to ``cg``; returns (x, info,
    iterations)."""
    from scipy.sparse.linalg import LinearOperator, cg as scipy_cg
    shape = (rhs.size, rhs.size)
    steps = []
    x, info = scipy_cg(LinearOperator(shape, matvec=matvec, dtype=float),
                       rhs, rtol=rtol, atol=0.0,
                       M=LinearOperator(shape, matvec=psolve, dtype=float),
                       callback=lambda xk: steps.append(1))
    return x, info, len(steps)


@pytest.mark.parametrize("n, R, spacing, folded", PROBLEMS + LONG_PROBLEMS)
def test_cg_matches_scipy_cg_bitwise(n, R, spacing, folded, monkeypatch):
    prob = _problem(n, R, spacing, folded)
    m = math.prod(prob.int_shape)       # unknowns
    rng = np.random.default_rng(50 + n)
    rhs = rng.standard_normal(m)
    w2 = rng.uniform(-1.0, 66.0, m)
    rtol = LINEAR_RTOL
    calls = []
    solve = _DirichletProblem.shifted_solve
    monkeypatch.setattr(_DirichletProblem, "shifted_solve",
                        lambda self, s, v, *dtype: calls.append(dtype)
                        or solve(self, s, v, *dtype))
    x, (matvec, b, rtol_cg, psolve), (x_cg, info) = _handed_to_cg(
        prob, w2, rhs, rtol, monkeypatch)
    newton_calls = list(calls)
    assert rtol_cg == rtol
    # CG runs on y = D x: the centre layers of a folded problem are scaled
    assert b is rhs if not folded else np.array_equal(b, prob.weigh(rhs))
    x_ref, info_ref, steps = _scipy_newton_cg(matvec, psolve, b, rtol)
    assert info == info_ref == 0
    assert np.array_equal(x_cg, x_ref)
    assert np.array_equal(x, prob.unweigh(x_ref))
    # one float32 preconditioner application per CG iteration, none to probe
    assert steps > 0 and newton_calls == [(np.float32,)] * steps


@pytest.mark.parametrize("n, R, spacing", INTERIORS)
def test_newton_preconditioner_is_shifted_solve_to_float32_rounding(
        n, R, spacing, monkeypatch):
    import phaselab.solver as solver_mod
    prob = _problem(n, R, spacing)
    m = math.prod(prob.int_shape)       # unknowns
    rng = np.random.default_rng(60 + n)
    rhs = rng.standard_normal(m)
    w2 = rng.uniform(-1.0, 66.0, m)
    # the preconditioner callable that newton_solve hands to cg
    handed = []
    cg = solver_mod.cg
    monkeypatch.setattr(solver_mod, "cg",
                        lambda *a: handed.append(a[3]) or cg(*a))
    prob.newton_solve(w2, rhs, LINEAR_RTOL)
    (psolve,) = handed
    shift = float(np.mean(np.maximum(w2, 0.0)))
    v = rng.standard_normal(m)
    x = psolve(v)
    exact = prob.shifted_solve(shift, v)
    assert x.dtype == np.float64 and x.shape == exact.shape
    assert np.linalg.norm(x - exact) <= 1e-5 * np.linalg.norm(exact)


def _atom_like_solve(n):
    """A boundary-atom-like solve in 2D (the finest atom_sweep grid, theta 4)
    or the 3D half-space solve of the halfspace_3d benchmark workload."""
    from phaselab.families import _half_space_unit_grid, bump
    if n == 2:
        g = _half_space_unit_grid(2, 10.0, 0.125)
        data = bump(g, 4.0, "exp_decay", amplitude=0.5, width=4.0)
        cfg = SolveConfig(residual_tol=5e-8)
    else:
        g, _ = make_half_space_grid(3, 4.0, 0.25, 1.0)
        data = bump(g, 1.5, "exp_decay", amplitude=0.5, width=4.0)
        cfg = SolveConfig(residual_tol=1e-8)
    return solve_half_space(data.samples, 1.0, P, g, cfg), cfg


@pytest.mark.parametrize("n, R, spacing", INTERIORS[1:])
def test_folded_energy_and_residual_are_those_of_the_mirrored_field(
        n, R, spacing):
    full, half = _problem(n, R, spacing), _problem(n, R, spacing, True)
    u = 1.0 + np.random.default_rng(90 + n).uniform(-0.5, 2.0,
                                                    full.grid.shape)
    for a in half.folded:
        u = 0.5 * (u + np.flip(u, a))
    u_half = u[tuple(slice(0, m) for m in half.grid.shape)]
    assert math.isclose(half.link_energy(u_half), full.link_energy(u),
                        rel_tol=1e-13)
    r = full.residual(u).reshape(full.int_shape)
    r_half = half.residual(u_half).reshape(half.int_shape)
    part = tuple(slice(0, k) for k in half.int_shape)
    assert np.max(np.abs(r_half - r[part])) <= 1e-13 * np.max(np.abs(r))


def _spy_on_unknowns(monkeypatch):
    """Record the ``int_shape`` of every ``_DirichletProblem`` built."""
    shapes = []
    init = _DirichletProblem.__init__
    monkeypatch.setattr(_DirichletProblem, "__init__",
                        lambda self, *a: init(self, *a)
                        or shapes.append(self.int_shape))
    return shapes


def _symmetric_data(g, rng):
    """Random nonnegative face data, mirror-symmetric on every tangential
    axis."""
    h = rng.uniform(0.0, 1.0, g.shape[:-1]) * np.exp(-face_radii(
        tuple(g.axis_coords(a) for a in range(g.n - 1))))
    for a in range(g.n - 1):
        h = 0.5 * (h + np.flip(h, a))
    return h


@pytest.mark.parametrize("n, R, spacing", [(2, 6.0, 0.25), (3, 3.0, 0.25)])
def test_folded_solve_matches_the_full_solve(n, R, spacing, monkeypatch):
    g, _ = make_half_space_grid(n, R, spacing, 1.0)
    rng = np.random.default_rng(80 + n)
    h = 3.0 * _symmetric_data(g, rng)
    cfg = SolveConfig(residual_tol=1e-9)
    shapes = _spy_on_unknowns(monkeypatch)
    folded = solve_half_space(h, 1.0, P, g, cfg)
    # the boundary extension plus an asymmetric interior perturbation: the
    # full path; W' is monotone above 1, so the solution is unique
    start = boundary_extension(g, 1.0 + h, 1.0)
    inner = tuple(slice(1, -1) for _ in g.shape)
    start[inner] += 1e-3 * rng.uniform(0.0, 1.0, start[inner].shape)
    full = solve_half_space(h, 1.0, P, g, cfg, initial=start)
    half = tuple((m - 1) // 2 for m in g.shape[:-1])
    assert shapes == [half + (g.shape[-1] - 2,), tuple(m - 2 for m in g.shape)]
    assert folded.converged and full.converged
    u = folded.field.values
    for a in range(n - 1):
        assert np.array_equal(u, np.flip(u, a))
    assert np.max(np.abs(u - full.field.values)) <= 10 * cfg.residual_tol
    assert np.max(np.abs(residual_field(folded.field, P).values)) \
        <= cfg.residual_tol
    assert math.isclose(folded.final_energy, full.final_energy,
                        rel_tol=1e-9)
    assert math.isclose(folded.energy_trace[-1], full.energy_trace[-1],
                        rel_tol=1e-9)


def _full_path_cases():
    g, _ = make_half_space_grid(2, 6.0, 0.25, 1.0)
    h = exp_base(g.axis_coords(0))
    lopsided = h * (1.0 + 0.1 * (g.axis_coords(0) > 0))
    start = boundary_extension(g, 1.0 + h, 1.0)
    start[20, 5] += 1e-3
    even = Grid((48, 25), 0.25, (-5.875, 0.0))
    h_even = exp_base(even.axis_coords(0))
    return {"asymmetric data": (g, lopsided, None),
            "asymmetric initial": (g, h, start),
            "even node count": (even, h_even + h_even[::-1], None)}


@pytest.mark.parametrize("case", sorted(_full_path_cases()))
def test_solves_without_mirror_symmetry_take_the_full_path(case,
                                                           monkeypatch):
    g, h, start = _full_path_cases()[case]
    if start is None:
        assert np.array_equal(h, h[::-1]) == (case == "even node count")
    shapes = _spy_on_unknowns(monkeypatch)
    res = solve_half_space(h, 1.0, P, g, SolveConfig(residual_tol=1e-9),
                           initial=start)
    assert res.converged
    assert shapes == [tuple(m - 2 for m in g.shape)]


def test_the_mirror_symmetric_experiments_solve_folded(acceptance_folds):
    # every solve of every member: the atom, penalty, unbounded, level set
    # and Hoelder families fold their one tangential axis; the oscillating
    # trace is not symmetric, and the 1D calibration has no tangential axis,
    # so both take the full path
    for name in ("boundary_atom", "penalty_zero", "unbounded",
                 "hausdorff_levelset", "hoelder_blowup"):
        assert acceptance_folds[name]
        assert set(acceptance_folds[name]) == {(0,)}, name
    for name in ("oscillation_atom", "tanh_calibration"):
        assert acceptance_folds[name]
        assert set(acceptance_folds[name]) == {()}, name
    assert acceptance_folds["neumann_layer"] == []


def test_the_halfspace_benchmark_solve_folds_both_tangential_axes(
        monkeypatch):
    import json
    import os
    from phaselab.families import bump
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "perfbench", "workloads.json")) as fh:
        spec = json.load(fh)["halfspace_3d"]["half_space"]
    g, _ = make_half_space_grid(spec["n"], spec["R"], spec["spacing"],
                                spec["far_value"])
    shapes = _spy_on_unknowns(monkeypatch)
    for theta in spec["theta_range"]:
        data = bump(g, theta, spec["shape"], amplitude=spec["amplitude"],
                    width=spec["width"])
        solve_half_space(data.samples, 1.0, P, g,
                         SolveConfig(residual_tol=spec["residual_tol"]))
    m = g.shape
    assert shapes == [((m[0] - 1) // 2, (m[1] - 1) // 2, m[2] - 2)] * 2


def test_the_hoelder_benchmark_run_folds_every_member(monkeypatch):
    # the Hoelder family of single_solve_sweep samples its face on spacings
    # 5/m, which are not powers of two; each member's one solve still folds
    import json
    import os
    from phaselab.families import FAMILY_PARAMS, build_family
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "perfbench", "workloads.json")) as fh:
        runs = json.load(fh)["single_solve_sweep"]["runs"]
    (cfg,) = [c for c in runs if c["experiment"] == "hoelder_blowup"]
    params = {k: v for k, v in cfg["params"].items()
              if k in FAMILY_PARAMS["hoelder_blowup"]}
    shapes = _spy_on_unknowns(monkeypatch)
    fam = build_family("hoelder_blowup", tuple(cfg["eps_list"]),
                       {"n": cfg["n"], **params},
                       max_iterations=cfg["solver"]["max_iterations"],
                       workers=cfg["workers"])
    grids = [m.unit_result.field.grid.shape for m in fam.members]
    assert len(grids) == len(cfg["eps_list"])
    assert sorted(shapes) == sorted(((m0 - 1) // 2, m1 - 2)
                                    for m0, m1 in grids)


def test_the_3d_hoelder_family_folds_both_tangential_axes(monkeypatch):
    from phaselab.families import build_family
    shapes = _spy_on_unknowns(monkeypatch)
    fam = build_family("hoelder_blowup", (0.2,),
                       {"n": 3, "window": 5.0, "points_per_unit_scale": 3.0})
    m = fam.members[0].unit_result.field.grid.shape
    assert shapes == [((m[0] - 1) // 2, (m[1] - 1) // 2, m[2] - 2)]


@pytest.mark.parametrize("n", [2, 3])
def test_float32_preconditioner_leaves_the_solve_unchanged(n, monkeypatch):
    import phaselab.solver as solver_mod
    cg_calls = []
    cg = solver_mod.cg
    monkeypatch.setattr(solver_mod, "cg",
                        lambda *a: cg_calls.append(1) or cg(*a))
    res32, cfg = _atom_like_solve(n)
    newton32 = len(cg_calls)
    solve = _DirichletProblem.shifted_solve
    monkeypatch.setattr(_DirichletProblem, "shifted_solve",
                        lambda self, s, v, *dtype: solve(self, s, v))
    res64, _ = _atom_like_solve(n)
    assert res32.converged and res64.converged
    # the burn-in steps are semi-implicit, in exact float64 in both solves
    burn_in = solver_mod.NEWTON_BURN_IN + 1
    assert res32.energy_trace[:burn_in] == res64.energy_trace[:burn_in]
    assert res32.iterations == res64.iterations
    assert newton32 > 0 and len(cg_calls) == 2 * newton32
    assert np.max(np.abs(res32.field.values - res64.field.values)) \
        <= 10 * cfg.residual_tol


def test_cg_reports_iterations_without_convergence():
    import phaselab.solver as solver_mod
    from scipy.sparse.linalg import LinearOperator, cg as scipy_cg
    prob = _problem(1, 4.0, 0.125)
    m = math.prod(prob.int_shape)       # unknowns
    rng = np.random.default_rng(7)
    rhs = rng.standard_normal(m)
    shape = (m, m)

    def S(v):
        return prob.matvec(v, prob.centre)

    with np.errstate(all="ignore"):
        x_ref, info_ref = scipy_cg(LinearOperator(shape, matvec=S), rhs,
                                   rtol=1e-300, atol=0.0)
        x, info = solver_mod.cg(S, rhs, 1e-300, lambda r: r)
    assert info == info_ref == 10 * m
    assert np.array_equal(x, x_ref, equal_nan=True)


def test_cg_zero_right_hand_side():
    import phaselab.solver as solver_mod
    prob = _problem(2, 4.0, 0.25)
    m = math.prod(prob.int_shape)       # unknowns
    x, info = solver_mod.cg(lambda v: prob.matvec(v, prob.centre),
                            np.zeros(m), 1e-10, lambda r: r)
    assert info == 0 and not x.any()


@pytest.mark.parametrize("kwargs", [
    {"max_iterations": -1}, {"residual_tol": 0}, {"residual_tol": math.nan},
])
def test_solve_config_rejects_out_of_range_values(kwargs):
    key = next(iter(kwargs))
    with pytest.raises(ValueError, match=key):
        SolveConfig(**kwargs)


def test_newton_falls_back_to_direct_solve_when_cg_fails(monkeypatch):
    import phaselab.solver as solver_mod
    prob = _problem(2, 4.0, 0.25)
    m = math.prod(prob.int_shape)       # unknowns
    rng = np.random.default_rng(3)
    rhs = rng.standard_normal(m)
    w2 = rng.uniform(-1.0, 66.0, m)
    monkeypatch.setattr(solver_mod, "cg",
                        lambda *args, **kwargs: (np.zeros(m), 1))
    x = prob.newton_solve(w2, rhs, 1e-10)
    H = (prob.sparse_matrix() + sp.diags(np.maximum(w2, 0.0))).tocsc()
    assert np.array_equal(x, splu(H).solve(rhs))


def test_folded_direct_fallback_solves_the_newton_system(monkeypatch):
    # the LU of D A D^-1 + diag(d) on D rhs, unweighed, is the CG solution
    import phaselab.solver as solver_mod
    prob = _problem(3, 2.0, 0.25, folded=True)
    m = math.prod(prob.int_shape)       # unknowns
    rng = np.random.default_rng(4)
    rhs = rng.standard_normal(m)
    w2 = rng.uniform(-1.0, 66.0, m)
    x_cg = prob.newton_solve(w2, rhs, 1e-12)
    monkeypatch.setattr(solver_mod, "cg",
                        lambda *args, **kwargs: (np.zeros(m), 1))
    x = prob.newton_solve(w2, rhs, 1e-12)
    assert np.linalg.norm(x - x_cg) <= 1e-9 * np.linalg.norm(x)


def test_solve_builds_no_sparse_matrix_when_cg_converges(monkeypatch):
    def refuse(self):
        raise AssertionError("sparse matrix built outside the CG fallback")
    monkeypatch.setattr(_DirichletProblem, "sparse_matrix", refuse)
    g, _ = make_half_space_grid(2, 6.0, 0.125, 1.0)
    res = solve_half_space(2.0 * exp_base(g.axis_coords(0)), 1.0, P, g,
                           SolveConfig(residual_tol=1e-9))
    assert res.converged


# --------------------------------------------------------------------------
# safeguards of the solve loop
# --------------------------------------------------------------------------

def _spy_on_the_loop(monkeypatch, reject):
    """Log the solve loop's steps: ("newton",) per Newton system,
    ("shift", s) per float64 semi-implicit solve and ("energy", e) per link
    energy.  Each candidate for which ``reject(log)`` holds gets energy +inf
    instead, logged as ("rejected",).  Returns the log, which fills as the
    loop runs."""
    log = []
    newton = _DirichletProblem.newton_solve
    solve = _DirichletProblem.shifted_solve
    energy = _DirichletProblem.link_energy

    def newton_spy(self, *args):
        log.append(("newton",))
        return newton(self, *args)

    def solve_spy(self, s, v, *dtype):
        if not dtype:
            log.append(("shift", s))
        return solve(self, s, v, *dtype)

    def energy_spy(self, full):
        if log and reject(log):
            log.append(("rejected",))
            return math.inf
        log.append(("energy", energy(self, full)))
        return log[-1][1]

    monkeypatch.setattr(_DirichletProblem, "newton_solve", newton_spy)
    monkeypatch.setattr(_DirichletProblem, "shifted_solve", solve_spy)
    monkeypatch.setattr(_DirichletProblem, "link_energy", energy_spy)
    return log


def _solve_spied(cfg):
    g, _ = make_half_space_grid(2, 6.0, 0.125, 1.0)
    return solve_half_space(2.0 * exp_base(g.axis_coords(0)), 1.0, P, g, cfg)


def _solve_rejecting_one_candidate(monkeypatch, reject):
    """Solve a 2D half-space problem under ``_spy_on_the_loop``.  Only the
    first candidate whose preceding log entry satisfies ``reject`` is
    rejected.  Returns the result, its config and the log."""
    log = _spy_on_the_loop(
        monkeypatch,
        lambda log: ("rejected",) not in log and reject(log[-1]))
    cfg = SolveConfig(residual_tol=1e-9)
    res = _solve_spied(cfg)
    assert ("rejected",) in log
    return res, cfg, log


def _assert_certified(res, cfg):
    assert res.converged and res.residual <= cfg.residual_tol
    assert np.max(np.abs(residual_field(res.field, P).values)) \
        <= cfg.residual_tol


def test_a_rejected_newton_step_is_halved(monkeypatch):
    import phaselab.solver as solver_mod
    # reject the full step of the first Newton step
    res, cfg, log = _solve_rejecting_one_candidate(
        monkeypatch, lambda last: last == ("newton",))
    k = log.index(("rejected",))
    # the next candidate is the half step, with no semi-implicit solve in
    # between, and the first Newton iteration accepts it
    kind, e_half = log[k + 1]
    assert kind == "energy"
    assert res.energy_trace[solver_mod.NEWTON_BURN_IN + 1] == e_half
    _assert_certified(res, cfg)


def test_a_rejected_semi_implicit_step_is_retried_with_a_larger_shift(
        monkeypatch):
    # reject the first semi-implicit candidate
    res, cfg, log = _solve_rejecting_one_candidate(
        monkeypatch, lambda last: last[0] == "shift")
    k = log.index(("rejected",))
    (_, s0), (_, s1), (kind, e_retry) = log[k - 1], log[k + 1], log[k + 2]
    assert s1 >= 2.0 * s0 and kind == "energy"
    # the retry is the first iteration's accepted step
    assert res.energy_trace[1] == e_retry
    _assert_certified(res, cfg)


def test_newton_stall_near_the_tolerance_gives_up(monkeypatch):
    # reject every Newton candidate, so that semi-implicit steps alone
    # bring the residual down; once it is within 10x of the tolerance, a
    # failed Newton step ends the solve with the best iterate
    def in_newton_line_search(log):
        return next(e for e in reversed(log)
                    if e[0] in ("newton", "shift")) == ("newton",)

    log = _spy_on_the_loop(monkeypatch, in_newton_line_search)
    cfg = SolveConfig(residual_tol=1e-9, max_iterations=400)
    with pytest.raises(NonConvergenceError) as info:
        _solve_spied(cfg)
    res = info.value.result
    assert not res.converged
    assert res.iterations < cfg.max_iterations
    assert cfg.residual_tol < res.residual <= 10 * cfg.residual_tol
    # no Newton candidate was accepted, and the last iteration was a
    # Newton line search of six rejected candidates, then one accepted
    # semi-implicit step
    assert all(k == "rejected" for k in (
        log[i + 1][0] for i, e in enumerate(log) if e == ("newton",)))
    assert log[-9:-2] == [("newton",)] + [("rejected",)] * 6
    assert [e[0] for e in log[-2:]] == ["shift", "energy"]


def test_the_shift_retries_give_up_after_sixty_doublings(monkeypatch):
    # reject every semi-implicit candidate: each retry at least doubles the
    # shift, and the 61st rejection ends the solve before its first
    # iteration, with the start iterate as the best one
    cfg = SolveConfig(residual_tol=1e-9)
    with pytest.raises(NonConvergenceError) as info:
        _solve_spied(SolveConfig(residual_tol=1e-9, max_iterations=0))
    start = info.value.result
    log = _spy_on_the_loop(monkeypatch, lambda log: log[-1][0] == "shift")
    with pytest.raises(NonConvergenceError) as info:
        _solve_spied(cfg)
    res = info.value.result
    shifts = [e[1] for e in log if e[0] == "shift"]
    assert len(shifts) == 61 == log.count(("rejected",))
    assert all(b >= 2.0 * a for a, b in zip(shifts, shifts[1:]))
    assert ("newton",) not in log
    assert res.iterations == 0 and not res.converged
    assert res.energy_trace == start.energy_trace
    assert len(res.energy_trace) == 1
    assert res.residual == start.residual == pytest.approx(17.22, abs=0.01)
    assert np.array_equal(res.field.values, start.field.values)
