import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kreinrel import subspaces as sub
from kreinrel.tolerances import DEFAULT_TOL, TolerancePolicy, as_matrix

from conftest import svd_calls
from oracles import exact_rank, intersection_by_join, kernel_by_qr_and_svd, \
    meet_complement_by_complement, principal_angles_arccos, projector_gap_angle, svd_nullspace


def rand_cols(rng, n, k):
    return rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))


def rand_pair(rng, n, ka, kb, nested):
    """A of dim ka and B of kb random columns, plus A itself when nested."""
    a = sub.span(rand_cols(rng, n, ka))
    cols = rand_cols(rng, n, kb)
    return a, sub.span(np.hstack([a.frame, cols]) if nested else cols)


# (n, ka, kb, nested): trivial A, full A, A inside B, dim A + dim B > n, n = 32
EDGE_PAIRS = [(4, 0, 2, False), (4, 4, 2, False), (5, 2, 1, True), (5, 3, 4, False),
              (32, 12, 25, False)]

LOOSE = TolerancePolicy(rank_rel=1e-3, rank_abs=1e-6, angle_tol=1e-4)


def test_span_collinear():
    s = sub.span(np.array([[1, 0], [2, 0]]).T)
    assert s.dim == 1
    assert sub.contains(s, sub.span(np.array([[1, 0]]).T))


def test_span_c4_graph_vector():
    s = sub.span(np.array([[1, 0, 0, 0, 0, 1, 0, 0]]).T)
    assert s.dim == 1 and s.ambient_dim == 8


def test_span_rank_matches_exact_oracle():
    rng = np.random.default_rng(5)
    for trial in range(10):
        cols = 50 if trial == 0 else int(rng.integers(1, 12))
        ints = (rng.integers(-4, 5, size=(8, cols))
                + 1j * rng.integers(-4, 5, size=(8, cols)))
        # plant extra collinearity sometimes
        if cols >= 3 and trial % 2:
            ints[:, 2] = ints[:, 0] + ints[:, 1]
        assert sub.span(ints.astype(np.complex128)).dim == exact_rank(ints)


@pytest.mark.parametrize("bad", [complex(np.inf, 0), complex(0, np.nan), complex(1, np.inf)],
                         ids=["inf-real", "nan-imag", "1+inf-j"])
def test_non_finite_entries_rejected(bad):
    m = np.eye(2, dtype=np.complex128)
    m[1, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        as_matrix(m)
    with pytest.raises(ValueError, match="finite"):
        sub.span(m)
    with pytest.raises(ValueError, match="finite"):
        sub.span(m[:, 0])


@pytest.mark.parametrize("field, value", [
    ("rank_rel", np.inf), ("rank_abs", np.inf), ("angle_tol", np.inf), ("angle_tol", np.nan),
    ("angle_tol", 2.0), ("rank_rel", 1e-20), ("rank_abs", 0.0), ("rank_rel", 1.0),
    ("rank_rel", 2.0), ("rank_abs", 1.0), ("rank_abs", 2.0)])
def test_policy_rejects_tolerances_out_of_range(field, value):
    # an infinite cut, or an angle past pi/2, would accept every identity; a
    # rank cut of 1 or more cuts every singular value of an orthonormal frame,
    # so every span and kernel of a frame would be trivial; the largest
    # principal angle itself is still a valid cut
    with pytest.raises(ValueError):
        TolerancePolicy(**{field: value})
    TolerancePolicy(angle_tol=np.pi / 2)


def test_intersect_idempotent():
    rng = np.random.default_rng(0)
    a = sub.span(rand_cols(rng, 5, 2))
    assert sub.equal(sub.intersect(a, a), a)


def benchmark_scale_pairs(rng):
    """Pairs the size of pipeline-large's: random and nested pairs at N = 96
    and 192, graph ∩ product(X, full) cages, and T0 ∩ T-perp at n = 48, d = 12."""
    from kreinrel import generators as gen
    pairs = [rand_pair(rng, *case) for case in
             [(96, 40, 70, False), (96, 30, 50, True), (192, 90, 120, False),
              (192, 60, 100, True)]]
    for n in (48, 96):
        graph = sub.span(np.vstack([np.eye(n), rand_cols(rng, n, n)]))
        cage = sub.product(sub.span(rand_cols(rng, n, n // 3)), sub.full(n))
        pairs.append((graph, cage))
    t = gen.gen_symmetric(gen.InstanceSpec(48, 48, (20, 28), 12))
    pairs.append((gen.gen_triple(t, 48).t0.graph, sub.complement(t.graph)))
    return pairs


def test_intersect_matches_join_oracle():
    rng = np.random.default_rng(1)
    pairs = [rand_pair(rng, *case) for case in EDGE_PAIRS]
    for _ in range(20):
        a = sub.span(rand_cols(rng, 6, 3))
        b_cols = np.hstack([a.frame[:, :1] + a.frame[:, 1:2], rand_cols(rng, 6, 2)])
        pairs.append((a, sub.span(b_cols)))
    pairs += benchmark_scale_pairs(rng)
    for a, b in pairs:
        want = intersection_by_join(a.frame, b.frame)
        for got in (sub.intersect(a, b), sub.intersect(b, a)):
            assert got.dim == want.shape[1]
            assert gram_defect(got) <= 1e-12
            if want.shape[1]:
                assert sub.equal(got, sub.span(want))


@pytest.mark.parametrize("tol", [DEFAULT_TOL, LOOSE], ids=["default", "loose"])
def test_intersect_keeps_a_direction_iff_its_sine_is_under_the_cut(tol):
    # A = span q0..q2; B turns the shared q1 by theta towards q4 and adds q5, q6
    cut = tol.rank_cut(1.0)
    thetas = sorted({1e-12, 5e-11, 3e-10, 1e-9, 1e-8, 1e-6, cut / 3, 0.9 * cut, 1.5 * cut,
                     3 * cut})
    q, _ = np.linalg.qr(rand_cols(np.random.default_rng(7), 8, 8))
    a = sub.Subspace(q[:, :3])
    dims = []
    for theta in thetas:
        turned = np.cos(theta) * q[:, 1] + np.sin(theta) * q[:, 4]
        b = sub.Subspace(np.column_stack([q[:, 0], turned, q[:, 5], q[:, 6]]))
        dims.append(sub.intersect(a, b, tol).dim)
        assert sub.intersect(b, a, tol).dim == dims[-1]
    assert dims == [2 if np.sin(theta) <= cut else 1 for theta in thetas]
    assert sum(x != y for x, y in zip(dims, dims[1:])) == 1


@pytest.mark.parametrize("tol", [DEFAULT_TOL, LOOSE], ids=["default", "loose"])
def test_meet_complement_matches_intersect_with_the_complement(tol):
    # T = span q0..q2; A turns q3 and q4 towards q0 and q1, with sines 0.5 and
    # 2 times the cut, and adds q5: A ∩ T-perp keeps the first and the last
    cut = tol.rank_cut(1.0)
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rand_cols(rng, 8, 8))
    t = sub.Subspace(q[:, :3])
    turned = [np.sqrt(1 - s ** 2) * q[:, 3 + k] + s * q[:, k]
              for k, s in enumerate((0.5 * cut, 2 * cut))]
    mix = np.linalg.qr(rand_cols(rng, 3, 3))[0]
    a = sub.Subspace(np.column_stack([*turned, q[:, 5]]) @ mix)
    got = sub._meet_complement(a, t, tol)
    want = meet_complement_by_complement(a, t, tol)
    assert got.dim == want.dim == 2
    assert gram_defect(got) <= 1e-12
    assert np.linalg.norm(t.coords(got.frame), 2) <= cut
    # the kept and the dropped sine are 1.5 cut apart, so either route
    # resolves the kept plane to about roundoff / cut
    planted = sub.span(np.column_stack([turned[0], q[:, 5]]))
    assert max(sub.distance(got, want), sub.distance(got, planted)) <= 1e-14 / cut
    assert sub.equal(sub._meet_complement(a, sub.trivial(8), tol), a)
    assert sub._meet_complement(sub.trivial(8), t, tol).dim == 0


@pytest.mark.parametrize("defect", [1e-12, 2e-10, 2e-9])
def test_caller_frames_off_orthonormal_are_stored_orthonormal(defect):
    # frames whose Gram misses I by `defect` (accepted below the 1e-8 check);
    # A and B share a 2-dim subspace that no frame column lies in
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rand_cols(rng, 10, 10))

    def caller_frame(cols):
        f = q[:, cols] @ np.linalg.qr(rand_cols(rng, len(cols), len(cols)))[0]
        h = rand_cols(rng, len(cols), len(cols))
        h = (h + h.conj().T) / np.abs(h + h.conj().T).max()
        return f @ (np.eye(len(cols)) + defect / 2 * h)

    fa, fb = caller_frame([0, 1, 2, 3]), caller_frame([0, 1, 4, 5, 6])
    for f in (fa, fb):
        assert 0.5 * defect < np.abs(f.conj().T @ f - np.eye(f.shape[1])).max() < 2 * defect
    a, b = sub.Subspace(fa), sub.Subspace(fb)
    assert max(gram_defect(a), gram_defect(b)) <= 1e-14
    assert sub.distance(a, sub.span(fa)) < 1e-14
    want = intersection_by_join(fa, fb).shape[1]
    assert want == 2
    assert sub.intersect(a, b).dim == sub.intersect(b, a).dim == want


def gram_defect(s: sub.Subspace) -> float:
    f = s.frame
    return float(np.abs(f.conj().T @ f - np.eye(f.shape[1])).max(initial=0.0))


def test_intersect_under_a_loose_rank_cut():
    # a near-intersection kept by the cut still yields an orthonormal frame
    loose = TolerancePolicy(rank_rel=1e-2)
    rng = np.random.default_rng(6)
    a = sub.span(rand_cols(rng, 6, 3))
    b = sub.span(np.hstack([a.frame[:, :2] + 1e-3 * rand_cols(rng, 6, 2), rand_cols(rng, 6, 1)]))
    got = sub.intersect(a, b, loose)
    assert got.dim == 2
    assert gram_defect(got) <= 1e-12
    assert sub.contains(a, got, TolerancePolicy(angle_tol=1e-2))
    assert sub.contains(b, got, TolerancePolicy(angle_tol=1e-2))


def test_sum_complement_full():
    rng = np.random.default_rng(2)
    a = sub.span(rand_cols(rng, 5, 2))
    assert sub.equal(sub.sum_(a, sub.complement(a)), sub.full(5))


def test_preimage_of_zero_is_kernel():
    rng = np.random.default_rng(3)
    m = rand_cols(rng, 4, 6)
    m[:, 5] = m[:, 0] + m[:, 1]
    got = sub.preimage(m, sub.trivial(4))
    want = svd_nullspace(m)
    assert got.dim == want.shape[1]
    assert sub.equal(got, sub.span(want))


def test_pinv_inverts_every_singular_value_its_caller_kept():
    # a policy with rank_rel below 1e-15 keeps 5e-16 against 1, so the
    # pseudo-inverse of a factorization decided full rank inverts it too
    tol = TolerancePolicy(rank_rel=4e-16, rank_abs=1e-16)
    rng = np.random.default_rng(11)
    u, v = (np.linalg.qr(rand_cols(rng, k, 2))[0] for k in (5, 3))
    s = np.array([1.0, 5e-16])
    assert tol.map_rank(s) == tol.span_rank(s) == 2
    got = sub._pinv(u, s, v.conj().T)
    want = v @ np.diag([1.0, 2e15]) @ u.conj().T
    assert np.abs(got - want).max() <= 1e-15 * 2e15


def with_singular_values(rng, rows, cols, s):
    """A rows x cols matrix U diag(s) V^H with random unitary U and V."""
    u = np.linalg.qr(rand_cols(rng, rows, rows))[0][:, : len(s)]
    v = np.linalg.qr(rand_cols(rng, cols, cols))[0][:, : len(s)]
    return (u * s) @ v.conj().T


@pytest.mark.parametrize("rows", [16, 24, 40, 64])
def test_wide_full_rank_kernel_by_qr_matches_svd_oracle(monkeypatch, rows):
    rng = np.random.default_rng(rows)
    calls = svd_calls(monkeypatch)
    for cols, scale in [(rows + 1, 1.0), (rows + rows // 4, 1e-6), (2 * rows, 1e6)]:
        m = rand_cols(rng, rows, cols) * scale
        calls.clear()
        got = sub.kernel(m)
        assert calls == []  # the certificate proves R's full rank
        want = svd_nullspace(m)
        assert got.dim == cols - rows == want.shape[1]
        assert projector_gap_angle(got.frame, want) <= 1e-12
        assert np.linalg.norm(m @ got.frame, 2) <= 1e-12 * np.linalg.norm(m, 2)
        assert gram_defect(got) <= 1e-12


def assert_near_the_oracle(k: sub.Subspace, m: np.ndarray, tol, bound: float):
    """k has the dim of the old route's frame, lies within 1e-12 of its span,
    is orthonormal to 1e-12, and m maps it to norm at most bound."""
    want = kernel_by_qr_and_svd(m, tol)
    assert k.dim == want.shape[1]
    assert projector_gap_angle(k.frame, want) <= 1e-12
    assert gram_defect(k) <= 1e-12
    assert np.linalg.norm(m @ k.frame, 2) <= bound


def test_wide_rank_deficient_kernel_takes_one_svd_of_its_r(monkeypatch):
    # ker m = [Q1 U[:, rank:], Q2] from m^H = QR and R[:rows] = U S V^H
    rng = np.random.default_rng(5)
    m = rand_cols(rng, 20, 15) @ rand_cols(rng, 15, 30)
    calls = svd_calls(monkeypatch)
    got = sub.kernel(m)
    assert calls == [((20, 20), True)]
    assert got.dim == 15
    assert_near_the_oracle(got, m, DEFAULT_TOL, 1e-12 * np.linalg.norm(m, 2))


@pytest.mark.parametrize("tol", [DEFAULT_TOL, LOOSE], ids=["default", "loose"])
@pytest.mark.parametrize("top", [1.0, 1e-4])
@pytest.mark.parametrize("factor", [1 - 1e-3, 1 + 1e-3])
def test_wide_kernel_dim_at_the_cut_follows_the_svd_rule(tol, top, factor):
    # sigma_min at (1 +- 1e-3) * cut; with top = 1e-4 the absolute floor
    # sets the cut under both policies
    rng = np.random.default_rng(6)
    cut = tol.rank_cut(top)
    s = np.concatenate([[top], np.geomspace(top / 2, 4 * cut, 18), [factor * cut]])
    m = with_singular_values(rng, 20, 30, s)
    sv = np.linalg.svd(m, compute_uv=False)
    want = 30 - int(np.sum(sv > tol.rank_cut(sv[0])))
    assert want == (10 if factor > 1 else 11)
    assert sub.kernel(m, tol).dim == want


@pytest.mark.parametrize("tol", [DEFAULT_TOL, LOOSE], ids=["default", "loose"])
@pytest.mark.parametrize("rows", [16, 24, 40, 64])
def test_full_rank_certificate_never_contradicts_the_span_rule(tol, rows):
    # sigma_min / sigma_max from 1 down to 1e-16, spread geometrically or in
    # one small value, at sigma_max = 1 and at 1e-4, where the absolute floor
    # decides; R is the square factor of m^H = QR, as on the QR route.  A
    # certified R has sigma_min above twice the cut; an undecided one is
    # within twice the certificate's own threshold c of it
    eps = np.finfo(np.float64).eps
    rng = np.random.default_rng(rows)
    certified = []
    for ratio in np.geomspace(1.0, 1e-16, 33):
        for spectrum in (np.geomspace(1.0, ratio, rows), np.r_[np.ones(rows - 1), ratio]):
            for top in (1.0, 1e-4):
                m = with_singular_values(rng, rows, rows + rows // 4, top * spectrum)
                r = np.linalg.qr(m.conj().T)[1]
                s = np.linalg.svd(r, compute_uv=False)
                if tol.span_full_certified(r):
                    assert tol.span_rank(s) == rows
                    assert s[-1] > 2 * tol.rank_cut(s[0])
                    certified.append(ratio)
                else:
                    fro = np.linalg.norm(r)
                    c = 2 * tol.rank_cut(fro) + 2 * (rows + 1) * np.sqrt(eps) * fro
                    assert s[-1] <= 2 * c
    assert max(certified) == 1.0 and len(certified) >= 8


@pytest.mark.parametrize("tol", [DEFAULT_TOL, LOOSE], ids=["default", "loose"])
def test_stack_with_a_deficient_item_gives_each_item_its_frame(monkeypatch, tol):
    # one undecided item sends the whole stack through one stacked SVD of R
    # with vectors; a certified stack takes no SVD at all.  A full-rank item
    # keeps Q's trailing columns bit for bit either way
    rng = np.random.default_rng(11)
    good = [rand_cols(rng, 24, 30) for _ in range(2)]
    bad = with_singular_values(rng, 24, 30, np.r_[np.ones(23), 1e-16])
    calls = svd_calls(monkeypatch)
    for stack, want_calls, dims in [
            (np.stack(good), [], [6, 6]),
            (np.stack([good[0], bad, good[1]]), [((3, 24, 24), True)], [6, 7, 6])]:
        calls.clear()
        got = sub.kernel(stack, tol=tol)
        assert calls == want_calls
        assert [k.dim for k in got] == dims
        for m, k in zip(stack, got):
            assert np.array_equal(k.frame, sub.kernel(m, tol=tol).frame)
            if k.dim == 6:
                assert np.array_equal(k.frame, kernel_by_qr_and_svd(m, tol))
            else:
                assert_near_the_oracle(k, m, tol, 1e-12 * np.linalg.norm(m, 2))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tol", [DEFAULT_TOL, LOOSE], ids=["default", "loose"])
@pytest.mark.parametrize("scale", [0.0, 1e-300, 1e-150, 1e150, 1e300])
def test_wide_kernel_of_a_scaled_block_is_the_svd_routes(tol, scale):
    # the certificate scales R by its largest entry, so neither the Gram nor
    # rank_abs / scale overflows; below rank_abs, and on a zero block, it is
    # undecided and the SVD of R finds rank 0: the frame spans C^40, and the
    # whole block lies under the absolute floor
    rng = np.random.default_rng(12)
    m = rand_cols(rng, 32, 40) * scale
    for mi, got in [(m, sub.kernel(m, tol=tol)),
                    (2 * m, sub.kernel(np.stack([m, 2 * m]), tol=tol)[1])]:
        if scale > 1e-100:
            assert got.dim == 8
            assert np.array_equal(got.frame, kernel_by_qr_and_svd(mi, tol))
        else:
            assert got.dim == 40
            assert_near_the_oracle(got, mi, tol, max(1e-12 * np.linalg.norm(mi, 2),
                                                     tol.rank_abs))


@pytest.mark.parametrize("shape", [(15, 30), (12, 15), (20, 20), (30, 20), (64, 48)])
def test_kernels_off_the_qr_route_keep_the_svd_frame(monkeypatch, shape):
    # fewer than 16 rows, square or tall
    rng = np.random.default_rng(shape[0])
    m = rand_cols(rng, *shape)

    def no_qr(*args, **kwargs):
        raise AssertionError("kernel took the QR route")

    monkeypatch.setattr(np.linalg, "qr", no_qr)
    _, s, vh = np.linalg.svd(m, full_matrices=True)
    rank = int(np.sum(s > DEFAULT_TOL.rank_cut(s[0])))
    assert np.array_equal(sub.kernel(m).frame, vh[rank:].conj().T)


@pytest.mark.parametrize("rows, cols", [(6, 9), (12, 15), (20, 30), (32, 40), (20, 16)])
def test_stacked_kernels_and_spans_give_each_items_frame(rows, cols):
    # each item of a stack gets the frame of its own 2-D call, bit for bit;
    # the second item is rank-deficient, so on the QR route the stack takes
    # the SVD of R with vectors
    rng = np.random.default_rng(rows + cols)
    stack = np.stack([rand_cols(rng, rows, cols),
                      with_singular_values(rng, rows, cols, np.ones(min(rows, cols) - 3)),
                      rand_cols(rng, rows, cols)])
    for tol in (DEFAULT_TOL, LOOSE):
        for f in (sub.kernel, sub.span):
            got = f(stack, tol=tol)
            assert len(got) == len(stack)
            for m, s in zip(stack, got):
                assert np.array_equal(s.frame, f(m, tol=tol).frame)
                assert not s.frame.flags.writeable
    full = min(rows, cols)
    assert [s.dim for s in sub.kernel(stack)] == [cols - full, cols - full + 3, cols - full]
    assert [s.dim for s in sub.span(stack)] == [full, full - 3, full]
    assert [s.dim for s in sub.kernel(np.zeros((2, 0, 5)))] == [5, 5]


def test_kernels_of_empty_blocks():
    # no rows: the full SVD's V is exactly the identity; no columns: C^0
    for n in (1, 5, 20):
        assert np.array_equal(sub.kernel(np.zeros((0, n))).frame, np.eye(n))
        assert sub.kernel(np.zeros((n, 0))).dim == 0
    # an empty stack, at a row count the QR route would take
    assert sub.kernel(np.zeros((0, 20, 30))) == []


def tilted_pair(rng, n, ka, kb, thetas, common=0):
    """A spans ka columns of a random unitary Q and shares its first `common`;
    B turns A's next len(thetas) columns by thetas towards Q's columns past
    A's, then fills up to kb with Q's columns after those."""
    q = np.linalg.qr(rand_cols(rng, n, n))[0]
    k = len(thetas)
    turned = (np.cos(thetas) * q[:, common:common + k]
              + np.sin(thetas) * q[:, ka:ka + k])
    rest = q[:, ka + k:ka + k + kb - common - k]
    return sub.Subspace(q[:, :ka]), sub.Subspace(np.hstack([q[:, :common], turned, rest]))


def wedin_bound(s: np.ndarray, k: int) -> float:
    """1e-12 rad plus a multiple of roundoff over the gap that splits the
    first k values of s from the rest: two backward-stable routes may differ
    by that much (Wedin's sin theta theorem)."""
    if not 0 < k < len(s):
        return 1e-12
    return 1e-12 + 16 * np.finfo(np.float64).eps * s[0] / (s[k - 1] - s[k])


@pytest.mark.parametrize("tol", [DEFAULT_TOL, LOOSE], ids=["default", "loose"])
@pytest.mark.parametrize("cols", [15, 16, 17])
@pytest.mark.parametrize("tall", [1, 2])
def test_tall_spans_match_an_svd_of_the_same_matrix(monkeypatch, tol, cols, tall):
    # span, image (on C^cols, which maps m to itself exactly) and sum_ (of a
    # pair at principal angles 2 arctan(ratio), whose frames side by side have
    # that ratio of singular values) at sigma_min / sigma_max from 1 to
    # 1e-16.  From 16 columns on a certified R gives Q and takes no SVD, an
    # undecided one takes one SVD of R; below, the SVD of m runs bit for bit
    eps = np.finfo(np.float64).eps
    rng = np.random.default_rng(100 * tall + cols)
    rows = tall * cols
    calls = svd_calls(monkeypatch)
    routes = set()
    for ratio in np.geomspace(1.0, 1e-16, 28):
        for spectrum in (np.geomspace(1.0, ratio, cols), np.r_[np.ones(cols - 1), ratio]):
            m = with_singular_values(rng, rows, cols, spectrum)
            a, b = tilted_pair(rng, rows, cols - cols // 2, cols // 2,
                               2 * np.arctan(spectrum[-(cols // 2):]))
            for matrix, factor in [(m, lambda: sub.span(m, tol)),
                                   (m, lambda: sub.image(m, sub.full(cols), tol)),
                                   (np.hstack([a.frame, b.frame]), lambda: sub.sum_(a, b, tol))]:
                u, s, _ = np.linalg.svd(matrix, full_matrices=False)
                calls.clear()
                got = factor()
                if cols < 16:
                    assert calls == [((rows, cols), True)]
                    assert np.array_equal(got.frame, u[:, :tol.span_rank(s)])
                    continue
                # the routes' singular values differ by roundoff of the largest,
                # which decides only a value that close to the cut
                undecided = np.abs(s - tol.rank_cut(s[0])) <= 16 * eps * s[0]
                assert abs(got.dim - tol.span_rank(s)) <= undecided.sum()
                assert calls in ([], [((cols, cols), True)])
                routes.add(len(calls))
                assert projector_gap_angle(got.frame, u[:, :got.dim]) <= wedin_bound(s, got.dim)
                assert gram_defect(got) <= 1e-13
    assert routes == ({0, 1} if cols >= 16 else set())


@pytest.mark.parametrize("tol", [DEFAULT_TOL, LOOSE], ids=["default", "loose"])
def test_a_stack_of_tall_spans_gives_each_item_its_frame(monkeypatch, tol):
    # as for kernels: one certificate for the stack, and one stacked SVD of R
    # with vectors when an item is undecided; a full-rank item keeps Q
    rng = np.random.default_rng(13)
    good = [rand_cols(rng, 32, 16) for _ in range(2)]
    bad = with_singular_values(rng, 32, 16, np.r_[np.ones(15), 1e-16])
    calls = svd_calls(monkeypatch)
    for stack, want_calls, dims in [
            (np.stack(good), [], [16, 16]),
            (np.stack([good[0], bad, good[1]]), [((3, 16, 16), True)], [16, 15, 16])]:
        calls.clear()
        got = sub.span(stack, tol=tol)
        assert calls == want_calls
        assert [s.dim for s in got] == dims
        for m, s in zip(stack, got):
            assert np.array_equal(s.frame, sub.span(m, tol=tol).frame)
            if s.dim == 16:
                assert np.array_equal(s.frame, np.linalg.qr(m)[0])


@pytest.mark.parametrize("n", [15, 16, 40])
def test_complement_is_orthonormal_and_orthogonal(n):
    # from 16 ambient rows Q2 of a complete QR of A's frame; below, a full SVD
    rng = np.random.default_rng(n)
    for k in sorted({0, min(16, n), n}):
        a = sub.span(rand_cols(rng, n, k))
        got = sub.complement(a)
        assert got.dim == n - k
        assert gram_defect(got) <= 1e-14
        assert np.abs(a.frame.conj().T @ got.frame).max(initial=0.0) <= 1e-14


@pytest.mark.parametrize("tol", [DEFAULT_TOL, LOOSE], ids=["default", "loose"])
@pytest.mark.parametrize("n, k", [(2, 1), (6, 3), (12, 6), (40, 15), (17, 16), (24, 16),
                                  (34, 17), (40, 16)])
def test_angle_reads_the_largest_sine_of_the_residual(tol, n, k):
    # B is A with one direction turned by theta out of it; the sine is the
    # root of the residual Gram's largest eigenvalue
    rng = np.random.default_rng(n + k)
    thetas = [0.0, 1e-15, 1e-12, 1e-9, tol.angle_tol * (1 - 1e-6),
              tol.angle_tol * (1 + 1e-6), 1e-3, np.pi / 2]
    q = np.linalg.qr(rand_cols(rng, n, k + 1))[0]
    a = sub.Subspace(q[:, :k])
    for theta in thetas:
        fb = q[:, :k].copy()
        fb[:, 0] = np.cos(theta) * q[:, 0] + np.sin(theta) * q[:, k]
        b = sub.Subspace(fb)
        sines = np.linalg.svd(b.frame - a.frame @ a.coords(b.frame), compute_uv=False)
        want = min(1.0, sines.max())
        got = sub._angle(a, b)
        assert abs(np.sin(got) - want) <= 1e-12 * want + 1e-15
        verdict = tol.angle_equal(np.arcsin(want))
        assert sub.equal(a, b, tol) == sub.contains(a, b, tol) == verdict
        if theta in thetas[4:6]:
            assert verdict == (theta < tol.angle_tol)


@pytest.mark.parametrize("tol", [DEFAULT_TOL, LOOSE], ids=["default", "loose"])
@pytest.mark.parametrize("n, ka, kb", [(40, 15, 24), (28, 16, 16), (30, 17, 17),
                                       (48, 16, 24), (40, 20, 24)])
def test_intersect_on_the_qr_route_matches_the_full_svd(tol, n, ka, kb):
    # A and B share 4 directions and meet at angle theta in 3 more; no theta
    # sits at a cut, where rounding decides the verdict on either route.  From
    # dim A = 16 on the sines and right vectors come from R of an R-only QR
    rng = np.random.default_rng(n + ka + kb)
    for theta in 0.5 * np.geomspace(1e-2, 1e-12, 11):
        a, b = tilted_pair(rng, n, ka, kb, np.full(3, theta), common=4)
        _, s, vh = np.linalg.svd(a.frame - b.frame @ b.coords(a.frame), full_matrices=False)
        apart = tol.apart(s)
        want = a.frame @ vh[apart:].conj().T
        got = sub.intersect(a, b, tol)
        assert got.dim == want.shape[1] == (7 if np.sin(theta) <= tol.rank_cut(1.0) else 4)
        assert projector_gap_angle(got.frame, want) <= wedin_bound(s, apart)
        assert gram_defect(got) <= 1e-13


def test_image_under_flip(c4):
    # J_hat(N) in the flip example, written out explicitly.
    jn = sub.image(c4["space"].doubled.J, c4["triple"].n_rel.graph)
    want = sub.span(np.array([[1, 0, 0, 0, 0, -1, 0, 0],
                              [0, 1, 0, 0, 0, 0, 0, 0],
                              [0, 0, 0, 1, 0, 0, 0, 0]]).T)
    assert sub.equal(jn, want)


def test_distance_matches_arccos_oracle():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a = sub.span(rand_cols(rng, 4, 2))
        b = sub.span(rand_cols(rng, 4, 2))
        got = sub.distance(a, b)
        want = principal_angles_arccos(a.frame, b.frame).max()
        assert abs(got - want) < 1e-7


def test_distance_dim_mismatch_sentinel():
    a = sub.span(np.array([[1, 0, 0]]).T)
    b = sub.span(np.array([[1, 0, 0], [0, 1, 0]]).T)
    assert sub.distance(a, b) == np.inf
    assert not sub.equal(a, b)


def test_contains_via_intersection(c4):
    t = c4["T"]
    tplus = c4["triple"].tplus
    assert sub.contains(tplus.graph, t.graph)
    assert not sub.contains(t.graph, tplus.graph)


@pytest.mark.parametrize("tol", [DEFAULT_TOL, TolerancePolicy(angle_tol=1e-6)],
                         ids=["default", "angle_tol=1e-6"])
@pytest.mark.parametrize("factor", [0.5, 1.5, 2.0])
@pytest.mark.parametrize("k", [1, 2])
def test_contains_agrees_with_equal_near_the_cut(tol, factor, k):
    # B turns one direction of A by theta out of A, in a rotated basis
    theta = factor * tol.angle_tol
    q, _ = np.linalg.qr(rand_cols(np.random.default_rng(k), 4, 4))
    b_cols = np.eye(4)[:, :k].astype(np.complex128)
    b_cols[:, k - 1] = np.cos(theta) * b_cols[:, k - 1] + np.sin(theta) * np.eye(4)[:, 3]
    a, b = sub.span(q[:, :k]), sub.span(q @ b_cols)
    assert (sub.contains(a, b, tol) == sub.contains(b, a, tol) == sub.equal(a, b, tol)
            == (factor < 1))
    # the turned vector alone, at any length, follows the same angle rule
    v = q @ b_cols[:, k - 1]
    assert (sub.contains(a, sub.span(v, tol), tol)
            == sub.contains(a, sub.span(10 * v, tol), tol) == (factor < 1))


def test_tiny_angles_resolved():
    # sine-based distance keeps accuracy far below the arccos floor
    eps = 1e-12
    a = sub.span(np.array([[1, 0, 0]]).T)
    b = sub.span(np.array([[1, eps, 0]]).T)
    d = sub.distance(a, b)
    assert abs(d - eps) < 1e-13
    # n = 96, k = 48: one frame column turned by theta out of A
    q, _ = np.linalg.qr(rand_cols(np.random.default_rng(96), 96, 49))
    a = sub.Subspace(q[:, :48])
    for theta in (1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2):
        fb = q[:, :48].copy()
        fb[:, 0] = np.cos(theta) * q[:, 0] + np.sin(theta) * q[:, 48]
        b = sub.Subspace(fb)
        d = sub.distance(a, b)
        assert abs(d - theta) < 1e-13 + 1e-9 * theta
        assert abs(d - projector_gap_angle(a.frame, b.frame)) < 1e-13 + 1e-9 * theta


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 6), st.integers(0, 3),
       st.integers(0, 3), st.booleans())
@example(0, *EDGE_PAIRS[0])
@example(1, *EDGE_PAIRS[1])
@example(2, *EDGE_PAIRS[2])
@example(3, *EDGE_PAIRS[3])
@example(4, *EDGE_PAIRS[4])
def test_dimension_formula(seed, n, ka, kb, nested):
    a, b = rand_pair(np.random.default_rng(seed), n, ka, kb, nested)
    assert (sub.sum_(a, b).dim + sub.intersect(a, b).dim == a.dim + b.dim)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6))
def test_complement_involution(seed, n):
    rng = np.random.default_rng(seed)
    a = sub.span(rand_cols(rng, n, rng.integers(0, n + 1)))
    assert sub.equal(sub.complement(sub.complement(a)), a)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 5))
def test_image_preimage_adjunction(seed, n):
    rng = np.random.default_rng(seed)
    m = rand_cols(rng, n, n) + 3 * np.eye(n)
    a = sub.span(rand_cols(rng, n, rng.integers(1, n)))
    b = sub.span(rand_cols(rng, n, rng.integers(1, n)))
    lhs = sub.contains(a, sub.image(m, b))
    rhs = sub.contains(sub.preimage(m, a), b)
    assert lhs == rhs


def test_span_idempotent_on_frames():
    rng = np.random.default_rng(9)
    s = sub.span(rand_cols(rng, 6, 3))
    again = sub.span(s.frame)
    assert sub.equal(s, again) and sub.distance(s, again) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 32), st.booleans(),
       st.sampled_from([1e-6, 1.0, 1e6]), st.integers(2, 12))
def test_computed_frames_are_orthonormal(seed, n, loose, scale, angle_exp):
    # frames built from an SVD skip the constructor's Gram check, so check it here:
    # ill-scaled columns, near-intersections at angle 10^-angle_exp, both policies
    tol = LOOSE if loose else DEFAULT_TOL
    rng = np.random.default_rng(seed)
    ka, kb = int(rng.integers(0, n + 1)), int(rng.integers(1, n + 1))
    scales = scale ** rng.choice([-1.0, 1.0], size=ka)
    a = sub.span(rand_cols(rng, n, ka) * scales, tol)
    near = a.frame[:, : kb // 2] + 10.0 ** -angle_exp * rand_cols(rng, n, min(a.dim, kb // 2))
    b = sub.span(np.hstack([near, rand_cols(rng, n, kb - near.shape[1])]) * scale, tol)
    m = rand_cols(rng, int(rng.integers(1, n + 1)), n) * scale ** rng.choice([-1.0, 1.0], size=n)
    built = [a, b, sub.sum_(a, b, tol), sub.intersect(a, b, tol), sub.kernel(m, tol),
             sub.complement(a), sub.image(m, a, tol), sub.preimage(m.conj().T, a, tol)]
    assert max(gram_defect(s) for s in built) <= 1e-12


def test_frames_are_read_only_copies():
    cols = np.eye(3, 2, dtype=np.complex128)
    s = sub.Subspace(cols)
    cols[0, 0] = 5.0
    assert s.frame[0, 0] == 1.0
    for built in (s, sub.span(cols), sub.kernel(cols.T), sub.complement(s)):
        with pytest.raises(ValueError, match="read-only"):
            built.frame[0, 0] = 2.0
    with pytest.raises(ValueError, match="not orthonormal"):
        sub.Subspace(cols)
