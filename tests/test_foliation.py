import contextlib
import functools
import io
import json
import math
import warnings
from types import SimpleNamespace
from unittest import mock

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq

from heisenberg_cmc import (
    DomainError,
    ModelParams,
    NumericsError,
    Point,
    SphereSpec,
    TangentVector,
    graph_mean_curvature_fd,
    outer_normal,
    profile_height,
)
from heisenberg_cmc.foliation import (
    CylinderSpec,
    calibration_divergence,
    calibration_field,
    foliation_constants,
    leaf_label,
    leaf_label_grid,
    vertical_label_bound,
)
from heisenberg_cmc import cli, foliation
from heisenberg_cmc.foliation import _leaf_terms
from heisenberg_cmc.sphere import _f, _height, _mass, _profile

from conftest import (GRID, SINGLE, counting_newton_passes, leaf_equation, mp_profile,
                      table_curvature_operator)


@pytest.fixture
def cyl(spec):
    return CylinderSpec(spec, 0.3)


def test_cylinder_geometry(spec):
    cyl = CylinderSpec(spec, 0.3)
    assert cyl.r_cut == pytest.approx(0.7)
    assert cyl.t_cut == pytest.approx(float(profile_height(spec, 0.7)))
    with pytest.raises(DomainError):
        CylinderSpec(spec, 1.0)
    with pytest.raises(DomainError):
        CylinderSpec(spec, -0.1)


def test_constants_closed_forms_and_positivity():
    for g in GRID:
        consts = foliation_constants(g)
        eps, tau, R = g.params.epsilon, g.params.tau, g.R
        k_expect = eps**3 * math.sqrt(1.0 + tau**2 * eps**2 * R**2) * math.sqrt(R)
        assert consts.k == pytest.approx(k_expect, rel=1e-14)
        f0 = float(profile_height(g, 0.0))
        assert consts.C == pytest.approx(
            1.0 / (4.0 * math.pi * eps * R**3 * (R * consts.k + f0)), rel=1e-14
        )
        assert consts.D == pytest.approx(
            1.0 / (12.0 * eps * math.pi**2 * R**5 * (4.0 * R * consts.k**2 + f0**2)), rel=1e-14
        )
        assert consts.k > 0 and consts.C > 0 and consts.D > 0


def test_scaled_constants_have_subriemannian_limits():
    sigma, R = 1.0, 1.0
    vals_c, vals_d = [], []
    for eps in (0.5, 0.25, 0.125, 0.0625):
        g = SphereSpec(ModelParams(eps, sigma), R)
        consts = foliation_constants(g)
        vals_c.append(eps * consts.C)
        vals_d.append(eps * consts.D)
    diffs_c = np.abs(np.diff(vals_c))
    diffs_d = np.abs(np.diff(vals_d))
    assert np.all(np.diff(diffs_c) < 0.0) and np.all(np.diff(diffs_d) < 0.0)
    assert vals_c[-1] > 0.0 and vals_d[-1] > 0.0


def test_leaf_equation_sign_limits(spec, cyl):
    """F from `sphere._f` falls from f(r; R) - t > 0 to t_cut - t < 0: `_label_below`'s bracket."""
    r, t = 0.3, 1.1
    f_here = float(profile_height(spec, r))
    assert cyl.t_cut < t < f_here
    assert leaf_equation(cyl, r, t, spec.R + 1e-9) > 0.0
    assert leaf_equation(cyl, r, t, spec.R + 1e-9) == pytest.approx(f_here - t, rel=1e-6)
    assert leaf_equation(cyl, r, t, 1e6 * spec.R) < 0.0


def test_leaf_equation_decreasing_in_label(cyl, rng):
    h = 1e-6
    for _ in range(10):
        r = rng.uniform(0.0, cyl.r_cut * 0.95)
        f_here = float(profile_height(cyl.spec, r))
        t = rng.uniform(cyl.t_cut, f_here)
        lam = rng.uniform(1.05, 3.0) * cyl.R
        slope = (leaf_equation(cyl, r, t, lam + h) - leaf_equation(cyl, r, t, lam - h)) / (2 * h)
        assert slope < 0.0


@pytest.mark.parametrize("lam", [1.0, 0.8, 0.3])
def test_point_on_leaf_at_or_above_the_graph_is_its_vertical_translate(spec, cyl, lam):
    """A label lam <= R is the graph shifted up by R - lam, t = f(r; R) + (R - lam), which
    leaf_label labels lam again."""
    q = Point(0.4, 0.0, float(profile_height(spec, 0.4)) + (spec.R - lam))
    assert leaf_label(cyl, q) == pytest.approx(lam, abs=1e-14)


@pytest.mark.parametrize("call, message", [
    (lambda cyl: leaf_label(cyl, Point(0.3, 0.0, cyl.t_cut - 0.1)), "outside the half-cylinder"),
    (lambda cyl: leaf_label(cyl, Point(1.2, 0.0, 0.5)), "outside the half-cylinder"),
    (lambda cyl: calibration_field(cyl, Point(0.3, 0.0, cyl.t_cut - 0.1)),
     "outside the half-cylinder"),
    (lambda cyl: calibration_field(cyl, Point(1.2, 0.0, 0.5)), "outside the half-cylinder"),
    (lambda cyl: vertical_label_bound(cyl, -0.1, 0.0), "need 0 <= r < r_cut"),
], ids=["leaf_label below the cut", "leaf_label off the disk", "calibration_field below the cut",
        "calibration_field off the disk", "vertical_label_bound at r < 0"])
def test_cylinder_calls_outside_their_domain_raise(cyl, call, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=message):
            call(cyl)


def test_label_on_and_above_graph(spec, cyl):
    r = 0.4
    f_here = float(profile_height(spec, r))
    assert leaf_label(cyl, Point(r, 0.0, f_here)) == pytest.approx(spec.R, abs=1e-14)
    q = Point(r, 0.0, f_here + 0.37)
    assert leaf_label(cyl, q) == pytest.approx(f_here - q.t + spec.R, abs=1e-14)
    assert leaf_label(cyl, q) < spec.R


def test_label_roundtrip_on_inside_leaves(cyl, rng):
    worst = 0.0
    for _ in range(40):
        lam = rng.uniform(1.0001, 5.0)
        r = rng.uniform(0.0, cyl.r_cut * 0.999)
        t = leaf_equation(cyl, r, 0.0, lam)  # the height of the leaf lam at r
        if t <= cyl.t_cut:
            continue
        worst = max(worst, abs(leaf_label(cyl, Point(r, 0.0, t)) - lam))
    assert worst <= 1e-10


def test_label_partition(spec, cyl, rng):
    # u > R exactly inside the enclosed region, u <= R on/above the graph
    for _ in range(200):
        r = rng.uniform(0.0, 0.999) * spec.R
        f_here = float(profile_height(spec, r))
        t = rng.uniform(cyl.t_cut + 1e-9, f_here + 1.0)
        if abs(t - f_here) < 1e-12:
            continue
        if t >= f_here:
            assert leaf_label(cyl, Point(r, 0.0, t)) <= spec.R
        else:
            assert leaf_label(cyl, Point(r, 0.0, t)) > spec.R


def test_label_just_below_the_graph_exceeds_R():
    # depth fraction 1.3e-8 at delta = 0: the root is within an ulp of R
    cyl = CylinderSpec(SphereSpec(ModelParams(0.016141342024463937, 0.0), 82.7941657495076), 0.0)
    u = leaf_label(cyl, Point(35.45024430093878, 0.0, 0.0003146598544533442))
    assert u == np.nextafter(cyl.R, np.inf)


def test_label_one_ulp_above_the_cut_is_finite():
    # t - t_cut is one ulp here: the smallest chord, where lam is largest
    cyl = CylinderSpec(SphereSpec(ModelParams(1.0, 1.0), 1.0), 1e-10)
    u = leaf_label(cyl, Point(0.3, 0.0, float(np.nextafter(cyl.t_cut, np.inf))))
    assert math.isfinite(u) and u > cyl.R


_ULP = np.finfo(float).eps


def _brentq_label(cyl, r, t):
    """Root of the leaf equation by scipy's brentq; the float after R when F
    has already changed sign there."""
    lo = float(np.nextafter(cyl.R, np.inf))
    if leaf_equation(cyl, r, t, lo) <= 0.0:
        return lo
    hi = 2.0 * cyl.R
    while leaf_equation(cyl, r, t, hi) >= 0.0:
        hi *= 2.0
    return brentq(lambda lam: leaf_equation(cyl, r, t, lam), lo, hi,
                  xtol=1e-300, rtol=4.0 * _ULP, maxiter=500)


def test_labels_match_brentq_oracle():
    """eps, |sigma|, R over [1e-3, 1e3] with sigma of either sign or 0,
    delta = 0 and delta > 0, depth fractions 1e-8 to 0.9999: each label is
    within max(16 ulp lam, 32 ulp scale / |F_lam|) of brentq's root."""
    rng = np.random.default_rng(20261018)
    checked = 0
    for k in range(36):
        eps, sigma, R = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), size=3))
        sigma *= (-1.0, 0.0, 1.0)[k % 3]
        delta = 0.0 if k % 2 == 0 else rng.uniform(0.01, 0.9) * R
        cyl = CylinderSpec(SphereSpec(ModelParams(eps, sigma), R), delta)
        r = rng.uniform(0.0, 0.999, size=12) * cyl.r_cut
        frac = np.concatenate(([1e-8, 0.9999], np.exp(rng.uniform(math.log(1e-8), 0.0, size=10))))
        frac = np.minimum(frac, 0.9999)
        f_r = _f(cyl.params, r, R)
        t = f_r - frac * (f_r - cyl.t_cut)
        keep = (cyl.t_cut < t) & (t < f_r)
        labels = leaf_label_grid(cyl, r[keep], t[keep])
        for ri, ti, lam in zip(r[keep], t[keep], labels):
            ref = _brentq_label(cyl, ri, ti)
            rr = np.array([ri, cyl.r_cut])
            g, _, dF = _profile(cyl.params, rr, ref)
            f, f_lam = _f(cyl.params, rr, ref), ref * dF / g  # f_R = R F'/g
            scale = abs(f[0]) + abs(f[1]) + abs(cyl.t_cut) + abs(ti)
            bound = max(16.0 * _ULP * ref, 32.0 * _ULP * scale / abs(f_lam[0] - f_lam[1]))
            assert lam > R and abs(lam - ref) <= bound, (eps, sigma, R, delta, ri, ti)
            checked += 1
    assert checked >= 400


def test_label_solves_take_at_most_6_passes():
    """The 27 spheres of `verify --grid` make no label solve: the label bound decides every grid
    point (test_calibration_check_matches_the_full_solve).  Over the domain
    of test_labels_match_brentq_oracle, which it reruns, a solve takes at most 6 passes."""
    grid, oracle = [], []
    with counting_newton_passes(foliation, "leaf label solve", grid):
        for spec in GRID:
            foliation._check_calibration(spec)
    with counting_newton_passes(foliation, "leaf label solve", oracle):
        test_labels_match_brentq_oracle()
    assert grid == [] and len(oracle) == 36
    assert max(oracle) <= 6


def _full_solve_calibration(spec, deltas=(0.0, 0.3), n=40, floor=foliation.label_floor):
    """`verify`'s calibration check by the full solve, the oracle of the label bound in `foliation`
    (`foliation._label_bound`): every grid point labelled by one leaf-label solve, `floor` in place
    of label_floor."""
    cyls, grids = [CylinderSpec(spec, delta) for delta in deltas if delta < spec.R], []
    for cyl in cyls:
        rs = np.linspace(0.0, cyl.r_cut * 0.995, n)
        f_rs = profile_height(spec, rs)
        depths = np.linspace(0.0, 0.999, n)[None, :] * (f_rs[:, None] - cyl.t_cut)
        ts = f_rs[:, None] - depths
        if not (ts >= np.finfo(float).tiny).all():  # f is subnormal, a height rounds onto t_cut
            raise NumericsError(f"the calibration grid's heights are not normal floats with eps = "
                                f"{spec.params.epsilon!r}, sigma = {spec.params.sigma!r}, R = {spec.R!r}")
        grids.append((np.repeat(rs, n), ts.ravel(), depths))
    r, t, depth = zip(*grids)
    cuts = {name: np.repeat([getattr(cyl, name) for cyl in cyls], n * n)
            for name in ("r_cut", "t_cut")}
    labels = leaf_label_grid(SimpleNamespace(params=spec.params, R=spec.R, **cuts),
                             np.concatenate(r), np.concatenate(t))
    return max(float(-((1.0 - spec.R / u) - floor(cyl, d)).min())
               for cyl, u, d in zip(cyls, labels.reshape(-1, n, n), depth))


def _outcome(check, spec):
    """repr of the check's value, or its error's type and message."""
    try:
        return repr(check(spec))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


# the stress grid of verify's open defects: eps, sigma and R over many decades, sigma of both signs
STRESS = [SphereSpec(ModelParams(e, s), R) for e in (1e-6, 1e-3, 0.01, 0.1, 1.0, 10.0, 1e3)
          for s in (-4.0, 0.0, 0.25, 1.0, 4.0) for R in (1e-3, 0.1, 1.0, 10.0, 1e3)]


@pytest.mark.parametrize("specs", [GRID, STRESS, SINGLE], ids=["grid", "stress", "single"])
def test_calibration_check_matches_the_full_solve(specs):
    """The label bound (`foliation._label_bound`) reports the full solve's worst shortfall, repr
    for repr, on the 27 spheres of `verify --grid`, the 175 of the stress grid and 10 single
    specs."""
    for spec in specs:
        assert (_outcome(foliation._check_calibration, spec)
                == _outcome(_full_solve_calibration, spec)), spec


# specs whose calibration heights are subnormal, f(r; R) of order eps^3 R below 2.2e-308, or at
# eps = 2e-102 only the deep ones, as f(0; R) = 8e-306 and 0.001 f is not normal; the stress grid
# has none
SUBNORMAL = [SphereSpec(ModelParams(e, s), R) for e, s, R in (
    (1e-40, 1.0, 1e-200), (4.012752403373936e-96, 0.0, 1.7221159776815583e-84),
    (3.685346282607545e-107, 0.0, 1.1421437937364058e-21),
    (5.663368378051281e-92, 0.0, 9.674106986711246e-110), (2e-102, 0.0, 1.0))]


@pytest.mark.parametrize("spec", SUBNORMAL, ids=lambda spec: f"{spec.params.epsilon:.3g}")
def test_calibration_guard_on_the_columns_ends_matches_the_full_solve(spec):
    """A column's heights fall with depth, so the check reads its two ends for heights that are not
    normal floats.  It raises what the full solve's guard over every height raises, message for
    message, for the sphere alone and as the first, middle or last member of a stack whose other
    members pass, which names the sphere of the first cut that fails."""
    want = _outcome(_full_solve_calibration, spec)
    assert want.startswith("NumericsError: the calibration grid's heights are not normal floats")
    assert _outcome(foliation._check_calibration, spec) == want
    for members in ([spec, *GRID[:2]], [GRID[0], spec, GRID[1]], [*GRID[:4], spec]):
        assert _outcome(foliation._check_calibration, cli._Stack(members=members)) == want


def test_a_value_lost_to_the_floats_over_a_stack_names_its_own_sphere():
    """Over a `_Stack` the NumericsError names eps, sigma and R of the sphere of the first
    element that is not finite, where it printed the stack's columns."""
    members = [SphereSpec(ModelParams(e, 1.0), 1.0) for e in (1.0, 1.52e103)]
    with pytest.raises(NumericsError, match=r"^eps\^3 is not finite with eps = 1\.52e\+103, "
                                            r"sigma = 1\.0$"):
        foliation._check_calibration(cli._Stack(members=members))
    stack = cli._Stack(members=[SphereSpec(ModelParams(e, 1.0), R)
                                for e, R in ((1.0, 1.0), (5e102, 2.0), (1.0, 3.0))])
    with pytest.raises(NumericsError, match=r"^the profile height is not finite with eps = 5e\+102, "
                                            r"sigma = 1\.0, R = 2\.0$"):
        _height(stack, np.full((3, 4), 0.5))


def test_points_whose_depth_rounds_to_0_below_the_graph_are_left_to_the_solve():
    """A height within a quarter ulp of f(r; R) lies below the graph by its grid depth, yet f - t
    rounds to 0 there.  The label bound's masked store gives such a point, at rows 5 and 20 of
    each column, the label f - t + R = R and a zero allowance, the label `_labels` gives it.  Its
    floor is above 0, so its slack is below its allowance and it stays open: the label solve
    labels it, and the worst shortfall is the full solve's, repr for repr."""
    spec = GRID[13]
    for delta in (0.0, 0.3):
        cyl = CylinderSpec(spec, delta)
        r = np.linspace(0.0, 0.995 * cyl.r_cut, 40)[:, None]
        f = _f(spec.params, r, spec.R)
        depth = np.linspace(0.0, 0.999, 40) * (f - cyl.t_cut)
        depth[:, [5, 20]] = 0.25 * np.spacing(f)
        t = f - depth
        on = (f - t == 0.0) & (depth > 0.0)  # rows 5 and 20; row 0 is on the graph, and decided
        assert on.sum() == 80 and on[:, [5, 20]].all()
        lam, allowance = foliation._label_bound(cyl, r, t, f)
        assert (lam[on] == spec.R).all() and (allowance[on] == 0.0).all()
        labels = foliation._labels(cyl, r, t)
        assert (labels[on] == spec.R).all()
        floors = foliation.label_floor(cyl, depth)
        slack = (1.0 - spec.R / lam) - floors
        open_ = ~(slack >= allowance)
        assert open_[on].all() and (floors[on] > 0.0).all()
        slack[open_] = (1.0 - spec.R / labels[open_]) - floors[open_]
        full = (1.0 - spec.R / leaf_label_grid(cyl, np.broadcast_to(r, t.shape), t)) - floors
        assert repr(float(-slack.min())) == repr(float(-full.min())) != "-0.0"


def test_calibration_check_solves_no_point_of_the_stress_grid():
    """The label bound decides every point of the stress grid's 436,800, so the check sends none
    to the label solve and makes no `_labels` call (the sign test of F at R/(1 - 2 floor - 8 ulp)
    that the bound replaced solved 232)."""
    solved, calls = [], []
    label_below, labels = foliation._label_below, foliation._labels

    def counting(cyl, r, t):
        solved.append(r.size)
        return label_below(cyl, r, t)

    def recording(cyl, r, t):
        calls.append(t.size)
        return labels(cyl, r, t)

    with mock.patch.object(foliation, "_label_below", counting), \
            mock.patch.object(foliation, "_labels", recording):
        for spec in STRESS:
            foliation._check_calibration(spec)
    assert solved == [] and calls == []


def test_calibration_check_that_fails_reports_the_full_solves_shortfall(monkeypatch, capsys):
    """Negative control: a floor raised 2.5-fold fails the grid points whose slack was under
    1.5 floor.  Those are solved, and the check and `verify` report the full solve's worst
    shortfall and fail.  The check takes the floor from the sphere's k and f(0; R) (`_floor`)."""
    def raised(cyl, depth):
        return 2.5 * foliation.label_floor(cyl, depth)

    spec = SphereSpec(ModelParams(1.0, 1.0), 1.0)
    want = _full_solve_calibration(spec, floor=raised)
    assert want > 1e-12
    floor = foliation._floor
    monkeypatch.setattr(foliation, "_floor", lambda *a: 2.5 * floor(*a))
    solved = []
    with counting_newton_passes(foliation, "leaf label solve", solved):
        assert foliation._check_calibration(spec) == want
    assert len(solved) == 1
    assert cli.main(["verify", "--json", "-"]) == cli.EXIT_CHECK_FAILED
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["calibration_bounds"]["measured"] == want
    assert not checks["calibration_bounds"]["passed"]


def _bound_calls(spheres):
    """`verify`'s calibration check on a SphereSpec or a `_Stack`: its value, its `_label_bound`
    calls as (cyl, r, t, f, (bound, allowance)), and the number of points sent to the label
    solve."""
    calls, solved = [], []
    label_bound, label_below = foliation._label_bound, foliation._label_below

    def recording(cyl, r, t, f):
        calls.append((cyl, r, t, f, label_bound(cyl, r, t, f)))
        return calls[-1][-1]

    def counting(cyl, r, t):
        solved.append(r.size)
        return label_below(cyl, r, t)

    with mock.patch.object(foliation, "_label_bound", recording), \
            mock.patch.object(foliation, "_label_below", counting):
        value = foliation._check_calibration(spheres)
    return value, calls, sum(solved)


def _column_call(spec):
    """The one `_label_bound` call of the check on one sphere, and its label-solve count."""
    _, (call,), solved = _bound_calls(spec)
    return call, solved


def _flat(cyl, r, t):
    """The same points as 1-d arrays, with r, r_cut and t_cut repeated per point (`np.repeat`)."""
    c, n, g = t.shape
    cuts = {k: np.repeat(np.ravel(getattr(cyl, k)), n * g) for k in ("r_cut", "t_cut")}
    return SimpleNamespace(params=cyl.params, R=cyl.R, **cuts), np.repeat(r, g), t.ravel()


@pytest.mark.parametrize("specs", [GRID, STRESS, SINGLE], ids=["grid", "stress", "single"])
def test_labels_on_radius_columns_equal_the_flat_layout(specs):
    """`verify`'s calibration check makes one `_label_bound` call a sphere, with r of shape
    (cylinders, n, 1) and r_cut, t_cut (cylinders, 1, 1) against (cylinders, n, 8) heights, the
    shallowest rows 0, 1, 2, 4, 7, 11, 17 and 26 of the column's 8 depth groups, so that f(r; R), m
    and D'(y_max) are worked out once a radius.  The bound and its allowance are those of the flat
    layout with one r per point, bit for bit, and so are the labels of `_labels` on the same
    columns, on the 27 spheres of `verify --grid`, the stress grid and the single specs; the check
    solves none.  The grid, from one profile pass over both cylinders, is each cylinder's own rows,
    bit for bit."""
    starts = [0, 1, 2, 4, 7, 11, 17, 26]
    for spec in specs:
        (cyl, r, t, f_r, bound), solved = _column_call(spec)
        c = 1 + (0.3 < spec.R)
        assert r.shape == (c, 40, 1) and t.shape == bound[0].shape == bound[1].shape == (c, 40, 8)
        assert np.shape(cyl.r_cut) == np.shape(cyl.t_cut) == (c, 1, 1)
        for k, delta in enumerate((0.0, 0.3)[:c]):
            one = CylinderSpec(spec, delta)
            rs = np.linspace(0.0, one.r_cut * 0.995, 40)
            f = profile_height(spec, rs)[:, None]
            assert r[k, :, 0].tobytes() == rs.tobytes() and f_r[k].tobytes() == f.tobytes()
            rows = f - np.linspace(0.0, 0.999, 40) * (f - one.t_cut)
            assert t[k].tobytes() == rows[:, starts].tobytes()
        flat = _flat(cyl, r, t)
        for got, want in zip(bound, foliation._label_bound(*flat, np.repeat(f_r, 8))):
            assert got.tobytes() == want.tobytes(), spec
        assert foliation._labels(cyl, r, t).tobytes() == foliation._labels(*flat).tobytes(), spec
        assert solved == 0


def test_points_outside_the_cylinder_raise_alike_in_both_layouts():
    """A radius at R or below 0, or a height at t_cut, raises the same DomainError from
    `_labels`, whether the radii are columns or repeated per point."""
    (cyl, r, t, _, _), _ = _column_call(GRID[13])
    for i, value in ((1, cyl.R), (0, -1e-300)):
        bad = r.copy()
        bad[i, 7, 0] = value
        for args in ((cyl, bad, t), _flat(cyl, bad, t)):
            with pytest.raises(DomainError, match="points must lie inside the half-cylinder"):
                foliation._labels(*args)
    bad = t.copy()
    bad[1, 5, 7] = cyl.t_cut[1, 0, 0]
    for args in ((cyl, r, bad), _flat(cyl, r, bad)):
        with pytest.raises(DomainError, match="points must lie inside the half-cylinder"):
            foliation._labels(*args)


def _stacks(specs, size):
    return [cli._Stack(members=specs[i:i + size]) for i in range(0, len(specs), size)]


@pytest.mark.parametrize("specs, size, calls, parts", [
    (GRID, 27, 2, 1), (GRID, 14, 3, 1), (STRESS, 25, 14, 7), (SINGLE, 4, 3, 0)],
    ids=["grid", "grid-by-14", "stress", "single"])
def test_stacked_calibration_check_equals_the_per_sphere_loop(specs, size, calls, parts):
    """Over a `_Stack` the check bounds 27 cylinders a `_label_bound` call, R, eps, sigma, r_cut
    and t_cut as (cylinders, 1, 1) columns against (cylinders, n, 8) heights, and reports what the
    loop of one-sphere checks over its members reports, repr for repr, so the sign of a zero
    shortfall too: the 27 `--grid` spheres as one stack in 2 calls, which part the 14th sphere's
    two cylinders; the `--grid` spheres in stacks of 14, the first of which ends in a block of one
    sphere; the stress grid in stacks of 25, whose blocks mix members of 1 and 2 cylinders and part
    one member's two; the single specs in stacks of 4.  No point goes to the label solve.  One
    sphere keeps its floats."""
    total, parted, made = 0, 0, 0
    for stack in _stacks(specs, size):
        value, bound_calls, solved = _bound_calls(stack)
        cuts = [spec for spec in stack.members for delta in (0.0, 0.3) if delta < spec.R]
        blocks = [cuts[i:i + 27] for i in range(0, len(cuts), 27)]
        assert len(bound_calls) == len(blocks)
        for (cyl, r, t, _, bound), block in zip(bound_calls, blocks):
            c, one = len(block), all(spec is block[0] for spec in block)
            assert r.shape == (c, 40, 1) and t.shape == bound[0].shape == bound[1].shape == (c, 40, 8)
            cols = (cyl.R, cyl.params.epsilon, cyl.params.sigma) if not one else ()
            assert all(np.shape(v) == (c, 1, 1) for v in cols + (cyl.r_cut, cyl.t_cut))
            if one:
                assert cyl.params is block[0].params and cyl.R is block[0].R
        parted += sum(a[-1] is b[0] for a, b in zip(blocks, blocks[1:]))
        each = (foliation._check_calibration(spec) for spec in stack.members)
        assert repr(value) == repr(max(each))
        total, made = total + solved, made + len(bound_calls)
    assert total == 0 and (made, parted) == (calls, parts)
    assert len(_bound_calls(GRID[13])[1]) == 1


def _log_uniform_specs(count, seed):
    """eps, |sigma| and R log-uniform in [1e-4, 1e4], sigma negative, 0 and positive in turn."""
    rng = np.random.default_rng(seed)
    draws = np.exp(rng.uniform(math.log(1e-4), math.log(1e4), (count, 3)))
    return [SphereSpec(ModelParams(float(e), (-1.0, 0.0, 1.0)[i % 3] * float(s)), float(R))
            for i, (e, s, R) in enumerate(draws)]


@functools.cache
def _bound_against_the_full_solve():
    """Per cylinder of the check's 40 x 40 grid, on GRID, STRESS and 210 log-uniform specs with
    delta in {0, 1e-3 R, 0.3 R}, the label bound and its allowance (`foliation._label_bound`) set
    against the full solve (`leaf_label_grid`): (spec, points below the graph, points the bound
    decides whose full-solve slack is below 0 or NaN, the largest excess of the bound over the
    label in units of the solve's stopping tolerance, at sigma = 0 the largest gap between their
    1 - R/label in units of the allowance plus 8 ulp, the depth groups of the check that the
    bound certifies with a row whose full-solve slack is below 0 or NaN, and the groups it leaves
    open)."""
    rows, starts, ends = [], [0, 1, 2, 4, 7, 11, 17, 26], [0, 1, 3, 6, 10, 16, 25, 39]
    for spec in GRID + STRESS + _log_uniform_specs(210, 38):
        R = spec.R
        for cyl in (CylinderSpec(spec, delta) for delta in (0.0, 1e-3 * R, 0.3 * R)):
            rs = np.linspace(0.0, cyl.r_cut * 0.995, 40)
            f = profile_height(spec, rs)[:, None]
            depth = np.linspace(0.0, 0.999, 40) * (f - cyl.t_cut)
            r, t = np.repeat(rs, 40), (f - depth).ravel()
            bound, allowance = foliation._label_bound(cyl, r, t, np.repeat(f, 40))
            label = leaf_label_grid(cyl, r, t)
            floor = foliation.label_floor(cyl, depth.ravel())
            decided = (1.0 - R / bound) - floor >= allowance
            unsound = decided & ~((1.0 - R / label) - floor >= 0.0)
            # a group: the bound at its shallowest row against the floor at its deepest
            grid = [v.reshape(40, 40) for v in ((1.0 - R / bound), floor, allowance)]
            certified = grid[0][:, starts] - grid[1][:, ends] >= grid[2][:, starts]
            full = ((1.0 - R / label) - floor).reshape(40, 40)
            sound = np.minimum.reduceat(full, starts, axis=1) >= 0.0
            below = np.repeat(f, 40) - t > 0.0
            r, t, bound, label, allowance = (v[below] for v in (r, t, bound, label, allowance))
            # the solve stops where |F| <= 16 ulp of its terms (`_residual`), which moves the label
            # by that over |F_lam| = lam y dF/dy / (s_r s_cut), or on a step of 4 ulp of the chord;
            # the bound rounds by its allowance, lam^2/R times that in lam
            m = _mass(spec.params, np.stack((r, np.full_like(r, cyl.r_cut))))
            y = foliation._chord_at(cyl, r, label)
            s, (f_r, f_cut), dF = _leaf_terms(cyl, r, m, y)
            terms = np.abs(f_r) + np.abs(f_cut) + abs(cyl.t_cut) + np.abs(t)
            tol = (16.0 * _ULP * terms * s[0] * s[1] / (label * y * dF) + 8.0 * _ULP * label
                   + allowance * bound * bound / R)
            gap = np.abs(R / bound - R / label) / (allowance + 8.0 * _ULP)
            rows.append((spec, int(below.sum()), int(unsound.sum()),
                         float(np.max((bound - label) / tol)),
                         float(np.max(gap)) if spec.params.sigma == 0.0 else 0.0,
                         int((certified & ~sound).sum()), int((~certified).sum())))
    return rows


def test_label_bound_decides_only_points_whose_full_solve_slack_holds():
    """Every point that the bound decides, 1 - R/bound - floor >= allowance, has a full-solve
    slack >= 0, on GRID, STRESS and 210 log-uniform specs (eps, |sigma|, R in [1e-4, 1e4], sigma
    of both signs and 0) with delta in {0, 1e-3 R, 0.3 R}: 1,928,160 points below the graph."""
    rows = _bound_against_the_full_solve()
    assert len(rows) == 3 * (len(GRID) + len(STRESS) + 210)
    assert sum(row[1] for row in rows) == 1_928_160
    assert [row[0] for row in rows if row[2]] == []


def test_depth_groups_certify_only_rows_whose_full_solve_slack_holds():
    """The check's depth groups (`foliation._check_calibration`) are sound: on the specs of
    test_label_bound_decides_only_points_whose_full_solve_slack_holds, each of the 395,520 groups
    that the bound at its shallowest row certifies against the floor at its deepest has a
    full-solve slack >= 0 on every row, and the `--grid` and stress spheres leave no group open."""
    rows = _bound_against_the_full_solve()
    assert sum(row[5] for row in rows) == 0
    assert sum(row[6] for row in rows[:3 * (len(GRID) + len(STRESS))]) == 0
    assert 8 * 40 * len(rows) == 395_520


def test_depth_groups_left_open_go_to_the_per_point_bound(monkeypatch):
    """Negative control: with the floor raised 1.5-fold, the `--grid` spheres as one stack leave
    groups open, whose rows the per-point bound settles, and the check still reports -0.0; raised
    2.5-fold, rows go on to the label solve, and the check reports the full solve's shortfall,
    repr for repr."""
    floor, label_bound, stack = foliation._floor, foliation._label_bound, cli._Stack(members=GRID)
    for factor in (1.5, 2.5):
        shapes = []

        def recording(cyl, r, t, f):
            shapes.append(t.shape)
            return label_bound(cyl, r, t, f)

        def raised(cyl, depth):
            return factor * foliation.label_floor(cyl, depth)

        monkeypatch.setattr(foliation, "_floor", lambda *a: factor * floor(*a))
        monkeypatch.setattr(foliation, "_label_bound", recording)
        value = foliation._check_calibration(stack)
        assert shapes[::2] == [(27, 40, 8)] * 2 and all(len(s) == 1 for s in shapes[1::2])
        if factor == 1.5:
            assert repr(value) == "-0.0" and len(shapes) == 4
        else:
            monkeypatch.setattr(foliation, "_label_bound", label_bound)
            monkeypatch.setattr(foliation, "_floor", floor)
            want = max(_full_solve_calibration(spec, floor=raised) for spec in GRID)
            assert want > 1e-12 and repr(value) == repr(want)


def test_label_bound_is_at_most_the_label_within_the_solves_tolerance():
    """The bound exceeds the full-solve label by less than half the solve's stopping tolerance
    (16 ulp of F's terms over |F_lam|, a 4-ulp step of the chord) plus its own allowance; it sits
    above the label by up to 7.9e-11 relative, at deep points where the solve stops on |F|."""
    assert max(row[3] for row in _bound_against_the_full_solve()) < 0.5


def test_label_bound_at_sigma_0_is_the_label():
    """At sigma = 0, m is eps^3 at both chord ends and D(y) = eps^3 y is linear, so the tangent is
    D itself and the bound is the label: their 1 - R/label agree within 5% of the allowance plus
    8 ulp (up to 581 ulp, next to the cut, where depth = f(r; R) - t cancels)."""
    rows = [row for row in _bound_against_the_full_solve() if row[0].params.sigma == 0.0]
    assert len(rows) == 3 * (35 + 70) and max(row[4] for row in rows) < 0.05


_full_solve_grid = functools.cache(_full_solve_calibration)


@pytest.mark.parametrize("seed", range(10))
def test_verify_grid_report_equals_the_per_sphere_oracle(seed, monkeypatch):
    """`verify --grid` prints, byte for byte, the report of the per-sphere oracle: the worst
    full-solve shortfall (`_full_solve_calibration`) of the 27 spheres taken one at a time, and
    R(u, v)w by seven contractions with the connection table (`table_curvature_operator`)."""
    def report():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify", "--grid", "--seed", str(seed), "--json", "-"])
        return code, out.getvalue()

    got = report()
    monkeypatch.setattr(foliation, "_check_calibration",
                        lambda spheres: max(map(_full_solve_grid, spheres.members)))
    monkeypatch.setattr(cli, "_curvature_operator", table_curvature_operator)
    assert got == report()
    assert json.loads(got[1])["n_specs"] == 27


@pytest.mark.parametrize("R", [1e-200, 1e-300])
def test_calibration_at_tiny_R(R):
    """At eps = sigma = 1 the label layer forms its chord, labels and floor in units of R, so
    with no warning: labels are the unit sphere's (eps, sigma u, R/u) times u, bit for bit,
    floors match 50 digits, delta = 0.3 R takes the linear floor, and the check is finite and
    the full solve's."""
    spec = SphereSpec(ModelParams(1.0, 1.0), R)
    u = foliation._unit(R)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for frac in (0.0, 0.3):
            cyl = CylinderSpec(spec, frac * R)
            unit = CylinderSpec(SphereSpec(ModelParams(1.0, u), R / u), frac * R / u)
            r = np.repeat(np.linspace(0.0, 0.99, 12) * cyl.r_cut, 9)
            f = profile_height(spec, r)
            t = f - np.tile(np.linspace(0.01, 0.999, 9), 12) * (f - cyl.t_cut)
            assert (leaf_label_grid(cyl, r, t) / u == leaf_label_grid(unit, r / u, t / u)).all()
            k, f0 = foliation._k_f0(spec)
            with mpmath.workdps(50):
                d, R_, k, f0 = (mpmath.mpf(x) for x in (0.1 * R, R, k, f0))
                want = (d * d / (4 * R_ * k * k + f0 * f0) if frac == 0.0 else
                        mpmath.sqrt(mpmath.mpf(cyl.delta)) * d / (R_ * k + f0))
            for depth in (0.1 * R, np.array([0.1 * R])):
                got = float(np.ravel(foliation.label_floor(cyl, depth))[0])
                assert abs(got - float(want)) <= 4 * _ULP * float(want)
        check = foliation._check_calibration(spec)
        assert repr(check) == repr(_full_solve_calibration(spec)) == "-0.0"


@pytest.mark.parametrize("frac", [0.0, 0.3])
def test_label_floor_where_eps_cubed_is_tiny(frac):
    """At sigma = 0 and eps = 1e-80, k and f(0; R) are about eps^3 = 1e-240, so 4 R k^2 + f0^2
    underflowed to 0 in units of R, and label_floor and vertical_label_bound raised
    ZeroDivisionError at delta = 0; in units of f(0; R) the floors match 50 digits."""
    cyl = CylinderSpec(SphereSpec(ModelParams(1e-80, 0.0), 1.0), frac)
    k, f0 = foliation._k_f0(cyl.spec)
    depth = 0.1 * f0
    with mpmath.workdps(50):
        d, k, f0 = (mpmath.mpf(x) for x in (depth, k, f0))
        want = float(d * d / (4 * k * k + f0 * f0) if frac == 0.0 else
                     mpmath.sqrt(mpmath.mpf(cyl.delta)) * d / (k + f0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for d in (depth, np.array([depth])):
            got = float(np.ravel(foliation.label_floor(cyl, d))[0])
            assert abs(got - want) <= 4 * _ULP * want
        bound = vertical_label_bound(cyl, 0.0, depth)
    assert bound.floor == foliation.label_floor(cyl, depth) and bound.satisfied


def test_one_solve_over_the_cylinders_of_a_sphere_gives_each_cylinder_its_labels():
    """`verify`'s calibration check labels the grids of delta = 0 and 0.3 in one solve, with
    r_cut and t_cut given per point: the labels are those of one solve per cylinder, bit for bit."""
    for spec in GRID:
        cyls = [CylinderSpec(spec, d) for d in (0.0, 0.3) if d < spec.R]
        grids = []
        for cyl in cyls:
            r = np.repeat(np.linspace(0.0, 0.995 * cyl.r_cut, 12), 9)
            f = profile_height(spec, r)
            grids.append((r, f - np.tile(np.linspace(0.0, 0.999, 9), 12) * (f - cyl.t_cut)))
        cuts = {k: np.repeat([getattr(c, k) for c in cyls], 108) for k in ("r_cut", "t_cut")}
        both = SimpleNamespace(params=spec.params, R=spec.R, **cuts)
        joint = leaf_label_grid(both, *map(np.concatenate, zip(*grids)))
        apart = np.concatenate([leaf_label_grid(cyl, r, t) for cyl, (r, t) in zip(cyls, grids)])
        assert joint.tobytes() == apart.tobytes()


def test_labels_whose_square_overflows_raise():
    """A point within 1e-300 of t_cut = 0 lies on a leaf whose lam^2 overflows: NumericsError
    naming the point and the sphere, with no RuntimeWarning.  At t = 1e-100 the label is
    finite, Delta D'(0)/(2 t) to first order in the chord, D'(0) the chord slope at y = 0."""
    cyl = CylinderSpec(SphereSpec(ModelParams(1e-3, 1.0), 1.0), 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (5e-324, 1e-300):
            with pytest.raises(NumericsError, match=rf"^the leaf label at \(r, t\) = \(0\.5, {t!r}\) "
                                                    r"is not finite with eps = 0\.001, sigma = 1\.0, R = 1\.0$"):
                leaf_label(cyl, Point(0.5, 0.0, t))
        w_r, w_cut = (math.hypot(1.0, 1e9 * x) for x in (0.5, 1.0))  # tau eps = sigma / eps^3
        slope = 1e-9 * (2.0 / 3.0) * (w_r**2 + w_r * w_cut + w_cut**2) / (w_r + w_cut)
        assert leaf_label(cyl, Point(0.5, 0.0, 1e-100)) == pytest.approx(0.75 * slope / 2e-100, rel=1e-14)


def _mp_label(cyl, r, t, guess):
    """50-digit root of the leaf equation in lam, from a bracket of +-1e-6 around `guess`."""
    e, s = cyl.params.epsilon, cyl.params.sigma
    with mpmath.workdps(50):
        def F(lam):
            return mp_profile(e, s, r, lam) - mp_profile(e, s, cyl.r_cut, lam) + cyl.t_cut - t
        lo = max(mpmath.mpf(cyl.R), mpmath.mpf(guess) * (1 - mpmath.mpf(1e-6)))
        return mpmath.findroot(F, (lo, mpmath.mpf(guess) * (1 + mpmath.mpf(1e-6))), solver="anderson")


def test_labels_at_the_rim_match_50_digit_roots():
    """The rows r = 0.995 r_cut at delta = 0 of `verify --grid` (every 4th
    sphere), where the leaf equation grows like sqrt(lam - R) and the old
    solve took 14 passes: each label within test_labels_match_brentq_oracle's
    bound of its 50-digit root, which is 16 ulp of lam but where f - f cancels
    deep in the sphere."""
    for spec in GRID[::4]:
        cyl = CylinderSpec(spec, 0.0)
        r = 0.995 * cyl.r_cut
        f_r = float(_f(cyl.params, r, spec.R))
        t = f_r - np.linspace(0.0, 0.999, 40)[1:] * (f_r - cyl.t_cut)
        for ti, lam in zip(t, leaf_label_grid(cyl, r, t)):
            exact = float(_mp_label(cyl, r, ti, lam))
            rr = np.array([r, cyl.r_cut])
            g, _, dF = _profile(cyl.params, rr, exact)
            f, f_lam = _f(cyl.params, rr, exact), exact * dF / g  # f_R = R F'/g
            scale = abs(f[0]) + abs(f[1]) + abs(cyl.t_cut) + abs(ti)
            bound = max(16.0 * _ULP * exact, 32.0 * _ULP * scale / abs(f_lam[0] - f_lam[1]))
            assert abs(lam - exact) <= bound, (spec, ti)


@pytest.mark.parametrize("delta_frac", [0.0, 0.3])
def test_chord_bracket_holds_in_50_digits(delta_frac):
    """eps^3 w(r) y <= D(y) <= eps^3 w(r_cut) y for D(y) = f(r; lam) - f(r_cut; lam)
    at the chord y = s_r - s_cut (the bracket of the label solve), and D is
    convex in y, so that D(y) >= y D'(0) = y eps^3 (2/3)(w_r^2 + w_r w_cut +
    w_cut^2)/(w_r + w_cut) (the label solve's start is above the root), at
    random points with eps, |sigma| and R log-uniform in [1e-3, 1e3]."""
    rng = np.random.default_rng(31)
    with mpmath.workdps(50):
        for k in range(40):
            eps, sigma, R = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), size=3))
            sigma *= (-1.0, 0.0, 1.0)[k % 3]
            r_cut = R * (1.0 - delta_frac)
            r = rng.uniform(0.0, 0.999) * r_cut
            e, Rm, rc, rm = (mpmath.mpf(v) for v in (eps, R, r_cut, r))
            gap = (rc - rm) * (rc + rm)
            y_max = gap / (mpmath.sqrt(Rm * Rm - rm * rm) + mpmath.sqrt(Rm * Rm - rc * rc))

            def D(y):
                s_r = (gap / y + y) / 2
                lam = mpmath.sqrt(s_r * s_r + rm * rm)
                return mp_profile(eps, sigma, rm, lam) - mp_profile(eps, sigma, rc, lam)

            def w(rho):
                return mpmath.sqrt(1 + (mpmath.mpf(sigma) * rho / e**3) ** 2)

            ys = sorted(y_max * mpmath.mpf(v) for v in np.exp(rng.uniform(math.log(1e-6), 0.0, size=3)))
            ds = [D(y) for y in ys]
            slack = mpmath.mpf(10) ** -30  # D - D cancels up to 12 digits at y = 1e-6 y_max
            w_r, w_cut = w(rm), w(rc)
            w_mean = mpmath.mpf(2) / 3 * (w_r**2 + w_r * w_cut + w_cut**2) / (w_r + w_cut)
            for y, d in zip(ys, ds):
                assert e**3 * w_r * y * (1 - slack) <= d <= e**3 * w_cut * y * (1 + slack)
                assert e**3 * w_mean * y * (1 - slack) <= d
            slopes = [(ds[1] - ds[0]) / (ys[1] - ys[0]), (ds[2] - ds[1]) / (ys[2] - ys[1])]
            assert slopes[0] <= slopes[1] * (1 + slack)


@pytest.mark.parametrize("R", [1e-300, 1e-200, 1.0, 3.0, 1e200])
def test_chord_at_a_label_matches_50_digits(R):
    """The chord y at a label lam (`_chord_at`, the label solve's bracket bound at lam = R) and
    s_r back from it (`_chord`) are within 8 ulp of their 50-digit values, with no warning:
    both are formed in units of R, so that their squares neither underflow nor overflow."""
    r_frac = np.array([0.0, 0.3, 0.9, 0.999])
    for delta_frac in (0.0, 0.3):
        cyl = SimpleNamespace(R=R, r_cut=R * (1.0 - delta_frac))
        r = r_frac * cyl.r_cut
        for lam in (R, 1.5 * R, 1e3 * R):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                y = foliation._chord_at(cyl, r, lam)
                s_r = foliation._chord(cyl, r, y)[0]
            with mpmath.workdps(50):
                for ri, yi, si in zip(r, y, s_r):
                    lm, rm, rc = (mpmath.mpf(v) for v in (lam, ri, cyl.r_cut))
                    s_want = mpmath.sqrt(lm * lm - rm * rm)
                    y_want = s_want - mpmath.sqrt(lm * lm - rc * rc)
                    assert abs(yi - y_want) <= 8 * _ULP * y_want
                    assert abs(si - s_want) <= 8 * _ULP * s_want


@pytest.mark.parametrize("eps, sigma", [(1.0, 1.0), (0.3, -2.0), (1.0, 0.0), (50.0, 1e-9)])
def test_chord_residual_matches_leaf_equation(eps, sigma):
    """The label solve's residual, taken from the chord y = s_r - s_cut, is
    the leaf equation up to rounding, and its F_lam = -lam y dF/dy / (s_r s_cut)
    is f_R(r; lam) - f_R(r_cut; lam).  delta = 0 and r -> r_cut take s_cut and
    the chord toward 0; tau = 0 takes p into the series branch of atanc.  The
    rounding allowed includes that of the leaf equation's own lam^2 - rho^2, which
    moves f(rho; lam) by about f ulp lam^2 / s_rho^2."""
    params = ModelParams(eps, sigma)
    for R, delta in [(0.5, 0.0), (1.0, 0.3), (2.0, 0.0), (7.0, 3.5)]:
        cyl = CylinderSpec(SphereSpec(params, R), delta)
        r = np.array([0.0, 0.3, 0.9, 0.999]) * cyl.r_cut
        for lam in (R * (1.0 + 1e-9), 1.3 * R, 40.0 * R):
            s_r, s_cut = np.sqrt((lam - r) * (lam + r)), math.sqrt((lam - cyl.r_cut) * (lam + cyl.r_cut))
            m = _mass(params, np.stack((r, np.full_like(r, cyl.r_cut))))
            y = (cyl.r_cut - r) * (cyl.r_cut + r) / (s_r + s_cut)
            (sr, sc), f, dF = _leaf_terms(cyl, r, m, y)
            lam_chord = np.sqrt(sr * sr + r * r)  # as `_label_below` forms lam from s_r
            assert np.allclose(lam_chord, lam, rtol=8 * _ULP, atol=0.0)
            for i, ri in enumerate(r):
                t = 0.5 * (float(_f(params, ri, R)) + cyl.t_cut)
                F = f[0, i] - f[1, i] + cyl.t_cut - t
                scale = (abs(f[0, i]) * (1.0 + (lam / sr[i]) ** 2) + abs(f[1, i]) * (1.0 + (lam / sc[i]) ** 2)
                         + abs(cyl.t_cut) + abs(t))
                assert abs(F - leaf_equation(cyl, ri, t, lam_chord[i])) <= 8 * _ULP * scale
                f_lam = -lam_chord[i] * y[i] * dF[i] / (sr[i] * sc[i])
                g_l, _, dF_l = _profile(params, np.array([ri, cyl.r_cut]), lam_chord[i])
                want = np.subtract(*(lam_chord[i] * dF_l / g_l))  # f_R = R F'/g
                assert f_lam == pytest.approx(float(want), rel=1e-6)


def test_label_grid_matches_scalar(cyl):
    rs = np.linspace(0.0, cyl.r_cut * 0.98, 13)
    ts = np.linspace(cyl.t_cut + 0.01, 1.6, 11)
    grid = leaf_label_grid(cyl, rs[:, None], ts[None, :])
    for i in range(0, 13, 4):
        for j in range(0, 11, 3):
            assert grid[i, j] == pytest.approx(
                leaf_label(cyl, Point(rs[i], 0.0, ts[j])), abs=1e-9
            )


def test_inside_leaves_are_translated_graphs_with_cmc(cyl, rng):
    """Each inside leaf is a vertical translate of a bigger sphere's graph,
    so its finite-difference mean curvature is 1/(eps * label)."""
    params = cyl.params
    for lam in (1.2, 1.7, 2.6):
        rs = rng.uniform(0.05, 0.9, size=10) * cyl.r_cut
        h_fd = graph_mean_curvature_fd(
            params, lambda x: _f(params, x, lam), rs, 1e-3 * lam
        )
        target = 1.0 / (params.epsilon * lam)
        assert np.max(np.abs(h_fd - target) / target) <= 1e-6


def test_calibration_field_is_unit_and_matches_normal(cyl, rng, spec):
    for _ in range(25):
        r = rng.uniform(0.02, cyl.r_cut * 0.98)
        th = rng.uniform(0.0, 2.0 * math.pi)
        q = Point(r * math.cos(th), r * math.sin(th), float(profile_height(spec, r)))
        v = calibration_field(cyl, q)
        n = outer_normal(spec, q)
        assert abs(v.norm() - 1.0) <= 1e-12
        assert (v - n).norm() <= 1e-8


def _gradient_field(cyl, x, y, t, h):
    """-grad(u)/|grad(u)| from central differences of `leaf_label_grid` with step h, converted to
    frame coefficients: grad u = ((u_x + sigma y u_t)/eps, (u_y - sigma x u_t)/eps, eps^2 u_t)."""
    e, s = cyl.params.epsilon, cyl.params.sigma
    p = np.array([x, y, t]) + h * np.concatenate((np.eye(3), -np.eye(3)))
    u = leaf_label_grid(cyl, np.hypot(p[:, 0], p[:, 1]), p[:, 2])
    u_x, u_y, u_t = (u[:3] - u[3:]) / (2.0 * h)
    grad = np.array([(u_x + s * y * u_t) / e, (u_y - s * x * u_t) / e, e * e * u_t])
    return -grad / np.linalg.norm(grad)


@pytest.mark.parametrize("eps, sigma, R", [(1.0, 1.0, 1.0), (0.5, 2.0, 0.7), (2.0, -0.5, 1.5),
                                           (1.0, 0.0, 1.0), (0.3, 1.0, 2.0), (4.0, 3.0, 0.2)])
@pytest.mark.parametrize("delta_frac", [0.0, 0.3])
def test_calibration_field_is_the_labels_downhill_gradient(eps, sigma, R, delta_frac):
    """V, the closed-form normal of each point's leaf, against its definition -grad(u)/|grad(u)|
    by central differences of the label, off the sphere above and below it.  The step h = 1e-5 R
    bounds the truncation error by about 300 (h/R)^2 on these specs, and the label's rounding
    by far less, so 1e3 (h/R)^2 + 1e-8 holds with room."""
    spec = SphereSpec(ModelParams(eps, sigma), R)
    cyl = CylinderSpec(spec, delta_frac * R)
    rng = np.random.default_rng(1)
    h = 1e-5 * R
    for above in (True, False):
        for _ in range(8):
            r = rng.uniform(0.05, 0.9) * cyl.r_cut
            theta = rng.uniform(0.0, 2.0 * math.pi)
            f_here = float(profile_height(spec, r))
            t = (f_here + rng.uniform(0.1, 0.5) * R if above
                 else f_here - rng.uniform(0.2, 0.8) * (f_here - cyl.t_cut))
            x, y = r * math.cos(theta), r * math.sin(theta)
            v = calibration_field(cyl, Point(x, y, t)).as_array()
            assert np.max(np.abs(v - _gradient_field(cyl, x, y, t, h))) <= 1e3 * (h / R) ** 2 + 1e-8


@pytest.mark.parametrize("delta_frac", [0.0, 0.3])
def test_calibration_field_where_eps_cubed_underflows_is_a_unit_vector(delta_frac):
    """Where eps^3 underflows and the frame coefficients of grad(u) overflow when squared, V is
    still the leaf's unit normal, with no warning; the label's gradient gave (0, -0, 0)."""
    spec = SphereSpec(ModelParams(5.354370729744816e-216, 1.7747129684292976e-06), 379276.36935860245)
    cyl = CylinderSpec(spec, delta_frac * spec.R)
    r = 0.5144617269930908 * spec.R
    point = Point(r, 0.0, 0.5 * (float(profile_height(spec, r)) + cyl.t_cut))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = calibration_field(cyl, point).as_array()
    assert np.all(np.isfinite(v))
    assert abs(np.linalg.norm(v) - 1.0) <= 4e-16


@pytest.mark.parametrize("eps", [1e-80, 1e-100, 1e-120, 1e-200])
@pytest.mark.parametrize("delta_frac", [0.0, 0.3])
def test_calibration_field_on_the_axis_is_T(eps, delta_frac):
    """On the axis V = T, below the graph, on it and above it, with no warning, where eps^2
    underflows when squared (1e-80 gave a norm of 1 + 5.6e-6, 1e-100 (nan, nan, inf)) and where
    m(0) = 0 (eps^3 underflows), which the label solve divides by."""
    spec = SphereSpec(ModelParams(eps, 1.0), 1.0)
    cyl = CylinderSpec(spec, delta_frac)
    f0 = float(profile_height(spec, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (0.5 * (f0 + cyl.t_cut), f0, 1.5 * f0):
            assert calibration_field(cyl, Point(0.0, 0.0, t)) == TangentVector(0.0, 0.0, 1.0)


@pytest.mark.parametrize("eps", [1e-120, 1e-200])
def test_label_on_the_axis_where_m_is_zero(eps):
    """m(0) = 0 once eps^3 underflows: the label solve divides by it with no warning, and the label
    is the one it was when it warned "divide by zero"."""
    cyl = CylinderSpec(SphereSpec(ModelParams(eps, 1.0), 1.0), 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        label = leaf_label(cyl, Point(0.0, 0.0, 0.5 * float(profile_height(cyl.spec, 0.0))))
    assert label == 1.1772298557397423


def test_cylinder_cut_is_derived_not_given(spec):
    """r_cut and t_cut come from delta alone: passing either is a TypeError, not overwritten."""
    for cut in ({"r_cut": 5.0}, {"t_cut": -9.0}):
        with pytest.raises(TypeError):
            CylinderSpec(spec, 0.3, **cut)
    cyl = CylinderSpec(spec, np.float64(0.3))
    assert type(cyl.delta) is float and cyl.delta == 0.3


def test_calibration_field_continuous_across_sphere(cyl, spec):
    for r in (0.15, 0.45, 0.65):
        t = float(profile_height(spec, r))
        above = calibration_field(cyl, Point(r, 0.0, t + 1e-9))
        below = calibration_field(cyl, Point(r, 0.0, t - 1e-9))
        assert (above - below).norm() <= 1e-7


def test_calibration_field_unit_everywhere(cyl, rng, spec):
    for _ in range(50):
        r = rng.uniform(0.0, 0.98) * spec.R
        f_here = float(profile_height(spec, r))
        t = rng.uniform(cyl.t_cut + 1e-6, f_here + 0.8)
        q = Point(r, 0.0, t)
        assert abs(calibration_field(cyl, q).norm() - 1.0) <= 1e-12


def test_divergence_equals_twice_leaf_curvature(cyl, spec):
    eps = spec.params.epsilon
    # above the sphere: H = 1/(eps R)
    for (r, t) in [(0.5, 1.15), (0.2, 1.5), (0.62, 1.31)]:
        div, h_lam = calibration_divergence(cyl, Point(r, 0.05, t))
        assert h_lam == pytest.approx(1.0 / (eps * spec.R), rel=1e-12)
        assert 0.5 * div == pytest.approx(h_lam, rel=1e-5)
    # below: H = 1/(eps u)
    for (r, t) in [(0.3, 1.15), (0.3, 1.05), (0.1, 1.0)]:
        div, h_lam = calibration_divergence(cyl, Point(r, 0.05, t))
        lam = leaf_label(cyl, Point(r, 0.05, t))
        assert lam > spec.R
        assert h_lam == pytest.approx(1.0 / (eps * lam), rel=1e-12)
        assert 0.5 * div == pytest.approx(h_lam, rel=1e-5)
        assert 0.5 * div <= 1.0 / (eps * spec.R) + 1e-9


def test_divergence_monotone_along_vertical_lines(cyl, spec):
    for r in (0.1, 0.3, 0.5):
        f_here = float(profile_height(spec, r))
        ts = np.linspace(cyl.t_cut + 0.02, f_here - 0.02, 8)
        divs = [calibration_divergence(cyl, Point(r, 0.0, t))[0] for t in ts]
        assert all(b > a for a, b in zip(divs, divs[1:]))


def test_divergence_rejects_stencil_near_sphere(cyl, spec):
    r = 0.4
    t = float(profile_height(spec, r)) + 1e-7
    with pytest.raises(DomainError):
        calibration_divergence(cyl, Point(r, 0.0, t))


def test_divergence_rejects_stencil_crossing_the_sphere(spec):
    # near the rim |f_r| ~ 100, so the outward stencil point of a point 4 steps
    # below the sphere lies above it
    cyl = CylinderSpec(spec, 0.0)
    h = 1e-5 * spec.R
    r = 0.9999 * spec.R
    q = Point(r, 0.0, float(profile_height(spec, r)) - 4.0 * h)
    assert float(profile_height(spec, r + h)) < q.t
    with pytest.raises(DomainError):
        calibration_divergence(cyl, q)


def test_vertical_bound_base_cases(cyl, spec):
    vb = vertical_label_bound(cyl, 0.3, 0.0)
    assert vb.label == spec.R and vb.deficit == 0.0 and vb.floor == 0.0 and vb.satisfied


@pytest.mark.parametrize("delta", [0.0, 0.3])
def test_vertical_bounds_hold_on_grid(spec, delta):
    cyl = CylinderSpec(spec, delta)
    consts = foliation_constants(spec)
    f0 = float(profile_height(spec, 0.0))
    rs = np.linspace(0.0, cyl.r_cut * 0.995, 40)
    f_rs = profile_height(spec, rs)
    depths = np.linspace(0.0, 0.999, 40)[None, :] * (f_rs[:, None] - cyl.t_cut)
    ts = f_rs[:, None] - depths
    labels = leaf_label_grid(cyl, np.broadcast_to(rs[:, None], ts.shape), ts)
    if delta == 0.0:
        floor = depths**2 / (4.0 * spec.R * consts.k**2 + f0**2)
    else:
        floor = math.sqrt(delta) * depths / (spec.R * consts.k + f0)
    margin = (1.0 - spec.R / labels) - floor
    assert margin.min() >= -1e-12


def test_vertical_growth_differential_inequality(cyl, spec):
    """g'(depth) >= sqrt(g - r_cut) / k along vertical lines (finite
    differences on the label)."""
    consts = foliation_constants(spec)
    h = 1e-5
    for r in (0.1, 0.35, 0.6):
        f_here = float(profile_height(spec, r))
        for depth in np.linspace(0.02, (f_here - cyl.t_cut) * 0.9, 6):
            g_minus = vertical_label_bound(cyl, r, depth - h).label
            g_plus = vertical_label_bound(cyl, r, depth + h).label
            g_mid = vertical_label_bound(cyl, r, depth).label
            slope = (g_plus - g_minus) / (2.0 * h)
            assert slope >= math.sqrt(max(g_mid - cyl.r_cut, 0.0)) / consts.k * (1.0 - 1e-9)


def test_vertical_bound_domain(cyl, spec):
    with pytest.raises(DomainError):
        vertical_label_bound(cyl, cyl.r_cut + 0.05, 0.1)
    with pytest.raises(DomainError):
        vertical_label_bound(cyl, 0.3, 10.0)


def test_divergence_raises_where_the_leaf_equation_is_lost_to_rounding():
    """At eps = 3042.9 and R = 0.0895 the profile is about 2.3e9 at r = 0.04,
    and the leaf through t = 0.5 has lam about 2e8: f_R(r; lam) and
    f_R(r_cut; lam) agree in every bit, so F_lam rounds to 0.  That point
    raises instead of giving NaN; far above it the divergence stays finite."""
    cyl = CylinderSpec(SphereSpec(ModelParams(3042.9, 0.0), 0.0895), 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericsError) as info:
            calibration_divergence(cyl, Point(0.04, 0.0, 0.5))
        div, h_lam = calibration_divergence(cyl, Point(0.04, 0.0, 1e6))
    message = str(info.value)
    for part in ("Point(x=0.04, y=0.0, t=0.5)", "eps = 3042.9", "sigma = 0.0", "R = 0.0895"):
        assert part in message
    assert math.isfinite(div) and math.isfinite(h_lam)
