import dataclasses
import itertools
import random
import tracemalloc
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bftvss import vss, wire
from bftvss.field import FixedPointCodec
from bftvss.vss import (
    InsufficientSharesError,
    MalformedInputError,
    ShareBundle,
)


def eval_poly(coeffs: Sequence[int], x: int, q: int) -> int:
    """Evaluate a polynomial with the given coefficients (constant first) at x
    over Z_q, by Horner's rule: the one-point reference for share, which
    evaluates every polynomial at every point at once."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % q
    return acc


class TestHandOracle:
    """Everything here is checkable by hand over q = 23."""

    def test_eval_poly(self):
        # f(x) = 5 + 3x
        assert eval_poly([5, 3], 1, 23) == 8
        assert eval_poly([5, 3], 2, 23) == 11
        assert eval_poly([5, 3], 3, 23) == 14

    def test_reconstruct_linear(self, tiny_group):
        # shares of f(x) = 5 + 3x at x = 1, 2 interpolate back to f(0) = 5
        bundles = [
            ShareBundle(eval_point=1, values=(8,)),
            ShareBundle(eval_point=2, values=(11,)),
        ]
        assert vss.reconstruct_encoded(bundles, 2, tiny_group) == (5,)

    def test_extra_shares_use_lowest_points(self, tiny_group):
        bundles = [
            ShareBundle(eval_point=3, values=(14,)),
            ShareBundle(eval_point=1, values=(8,)),
            ShareBundle(eval_point=2, values=(11,)),
        ]
        assert vss.reconstruct_encoded(bundles, 2, tiny_group) == (5,)

    def test_commitments_verify(self, tiny_group):
        # commitments for f(x) = 5 + 3x: the columns (g^5,) and (g^3,) mod 47
        assert pow(2, 5, 47) == 32 and pow(2, 3, 47) == 8
        commits = ((32,), (8,))
        good = ShareBundle(eval_point=2, values=(11,))
        assert vss.verify(good, commits, tiny_group)
        bad = ShareBundle(eval_point=2, values=(12,))
        assert not vss.verify(bad, commits, tiny_group)


def transpose(matrix):
    """Commitment rows, one per element, from columns, one per coefficient,
    or back: the per-element references below take rows."""
    return tuple(zip(*matrix))


def product_form_verify(bundle, commitments, params):
    """The textbook right-hand side, prod_k c_k^(j^k mod q), kept as an
    oracle for verify's Horner form; commitments in rows."""
    p, q, j = params.p, params.q, bundle.eval_point
    for value, row in zip(bundle.values, commitments):
        rhs = 1
        for k, c in enumerate(row):
            rhs = rhs * pow(c, pow(j, k, q), p) % p
        if params.exps([value]) != [rhs]:
            return False
    return True


# The per-element loops that share, verify, sum_shares and
# reconstruct_encoded replaced with whole-vector passes, kept as references:
# each new kernel must give the same result, or raise the same type, on any
# input of a shape that both take.  The share and verify references keep
# commitments in rows.

def per_element_share(secret, th, n, params, codec, rng):
    encoded = codec.encode_vector(secret)
    if not (1 <= th <= n):
        raise ValueError("threshold must satisfy 1 <= th <= n")
    q = params.q
    polys = [[s % q] + [rng.randrange(q) for _ in range(th - 1)] for s in encoded]
    commitments = tuple(tuple(params.exps(coeffs)) for coeffs in polys)
    return ([ShareBundle(j, tuple(eval_poly(coeffs, j, q) for coeffs in polys))
             for j in range(1, n + 1)], commitments)


def per_element_verify(bundle, commitments, params):
    if bundle.dimension != len(commitments):
        raise MalformedInputError("bundle and commitments disagree on dimension")
    p, j = params.p, bundle.eval_point
    for lhs, row in zip(params.exps(bundle.values), commitments):
        rhs = row[-1]
        for c in reversed(row[:-1]):
            rhs = pow(rhs, j, p) * c % p
        if lhs != rhs:
            return False
    return True


def per_element_sum_shares(bundles, params):
    if not bundles:
        raise MalformedInputError("no bundles to sum")
    first, q = bundles[0], params.q
    acc = [v % q for v in first.values]
    for b in bundles[1:]:
        if b.eval_point != first.eval_point or b.dimension != first.dimension:
            raise MalformedInputError("mismatch in sum")
        for i, v in enumerate(b.values):
            acc[i] = (acc[i] + v) % q
    return ShareBundle(first.eval_point, tuple(acc))


def per_element_reconstruct_encoded(bundles, th, params):
    chosen = vss._select_bundles(bundles, th)
    q, xs = params.q, [b.eval_point for b in chosen]
    lambdas = []
    for i, xi in enumerate(xs):
        num, den = 1, 1
        for j, xj in enumerate(xs):
            if j != i:
                num, den = num * -xj % q, den * (xi - xj) % q
        lambdas.append(num * pow(den, -1, q) % q)
    out = []
    for k in range(chosen[0].dimension):
        acc = 0
        for b, lam in zip(chosen, lambdas):
            acc = (acc + b.values[k] * lam) % q
        out.append(acc)
    return tuple(out)


def share_in_rows(*args):
    bundles, commitments = vss.share(*args)
    return bundles, transpose(commitments)


def outcome(kernel, *args):
    """What a call returns, or the type of what it raises."""
    try:
        return "returns", kernel(*args)
    except Exception as exc:  # compared by type with the reference's
        return "raises", type(exc)


def any_values(params, dim):
    """dim ints below q, at least q, up past p, or negative."""
    return st.lists(st.integers(-params.p, 2 * params.p), min_size=dim, max_size=dim)


class TestWholeVectorKernels:
    """share, verify, sum_shares and reconstruct_encoded agree with the
    per-element references above, at every group, on values at least q and
    negative, a single bundle and dimension-0 bundles; verify raises
    MalformedInputError on no commitment columns or columns of unequal
    length."""

    GROUPS = ["tiny_group", "group", "group_2048"]

    @pytest.mark.parametrize("name", GROUPS)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_share(self, request, name, data):
        params = request.getfixturevalue(name)
        tiny = params.q.bit_length() < 8
        codec = FixedPointCodec(0 if tiny else 16, params.q, 1 if tiny else 4)
        bound = int(codec.max_abs) - 1 if tiny else 8
        secret = data.draw(st.lists(st.integers(-bound, bound), max_size=5), label="secret")
        th, n = data.draw(st.integers(0, 5), label="th"), data.draw(st.integers(1, 6), label="n")
        seed = data.draw(st.integers(0, 2**32), label="seed")
        rng, ref = random.Random(seed), random.Random(seed)
        assert outcome(share_in_rows, secret, th, n, params, codec, rng) == outcome(
            per_element_share, secret, th, n, params, codec, ref)
        assert rng.getstate() == ref.getstate()

    @pytest.mark.parametrize("name", GROUPS)
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_verify(self, request, name, data):
        params = request.getfixturevalue(name)
        dim = data.draw(st.integers(0, 4), label="dim")
        th = data.draw(st.integers(0, 4), label="th")
        values = data.draw(any_values(params, dim), label="values")
        if data.draw(st.booleans(), label="honest columns"):
            # columns of polynomials whose values at j are the shares, so
            # that the elements after the first are reached
            j = data.draw(st.integers(1, 13), label="j")
            polys = [data.draw(st.lists(st.integers(0, params.q - 1),
                                        min_size=th, max_size=th)) for _ in range(dim)]
            columns = [params.exps([coeffs[k] for coeffs in polys]) for k in range(th)]
            values = [eval_poly(coeffs, j, params.q) for coeffs in polys]
        else:
            j = data.draw(st.integers(0, 13), label="j")
            columns = [data.draw(any_values(params, dim)) for _ in range(th)]
        if data.draw(st.booleans(), label="spoil one element") and dim:
            e = data.draw(st.integers(0, dim - 1))
            values[e] += 1
        if data.draw(st.booleans(), label="lift one commitment by p") and th and dim:
            k, e = data.draw(st.integers(0, th - 1)), data.draw(st.integers(0, dim - 1))
            columns[k][e] += params.p
        short = data.draw(st.sampled_from(["none", "every column", "one column"]),
                          label="drop the last element of")
        if short != "none" and th and dim:
            k = data.draw(st.integers(0, th - 1)) if short == "one column" else None
            columns = [c[:-1] if k in (None, i) else c for i, c in enumerate(columns)]
        bundle = ShareBundle(j, tuple(values))
        commitments = tuple(tuple(c) for c in columns)
        if th and len(set(map(len, commitments))) == 1:
            assert outcome(vss.verify, bundle, commitments, params) == outcome(
                per_element_verify, bundle, transpose(commitments), params)
        else:  # no column, or columns of unequal length: no rows to compare
            assert outcome(vss.verify, bundle, commitments, params) == (
                "raises", MalformedInputError)

    @pytest.mark.parametrize("name", GROUPS)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_sum_shares(self, request, name, data):
        params = request.getfixturevalue(name)
        dim = data.draw(st.integers(0, 4), label="dim")
        count = data.draw(st.integers(0, 4), label="bundles")
        bundles = [ShareBundle(2, tuple(data.draw(any_values(params, dim))))
                   for _ in range(count)]
        if count and data.draw(st.booleans(), label="mismatch one bundle"):
            i = data.draw(st.integers(0, count - 1))
            point, extra = data.draw(st.sampled_from([(3, ()), (2, (5,))]))
            bundles[i] = ShareBundle(point, bundles[i].values + extra)
        assert outcome(vss.sum_shares, bundles, params) == outcome(
            per_element_sum_shares, bundles, params)

    @pytest.mark.parametrize("name", GROUPS)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_reconstruct_encoded(self, request, name, data):
        params = request.getfixturevalue(name)
        dim = data.draw(st.integers(0, 4), label="dim")
        points = data.draw(st.lists(st.integers(1, 9), max_size=5), label="points")
        bundles = [ShareBundle(x, tuple(data.draw(any_values(params, dim))))
                   for x in points]
        if bundles and data.draw(st.booleans(), label="one longer bundle"):
            bundles[0] = ShareBundle(points[0], bundles[0].values + (1,))
        th = data.draw(st.integers(1, 5), label="th")
        assert outcome(vss.reconstruct_encoded, bundles, th, params) == outcome(
            per_element_reconstruct_encoded, bundles, th, params)


class TestHornerVerify:
    """verify agrees with the product form for j and th up to 13 at both
    committed groups: on honest rows, on rows with elements outside the
    order-q subgroup (times p - 1, of order 2, or arbitrary residues), and
    after tampering with one value or one commitment."""

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_product_form(self, group, group_2048, data):
        params = data.draw(st.sampled_from([group, group_2048]), label="group")
        p, q = params.p, params.q
        th = data.draw(st.integers(1, 13), label="th")
        j = data.draw(st.integers(1, 13), label="j")
        dim = data.draw(st.integers(1, 3), label="dim")
        polys = [data.draw(st.lists(st.integers(0, q - 1), min_size=th, max_size=th))
                 for _ in range(dim)]
        rows = [params.exps(coeffs) for coeffs in polys]
        values = [eval_poly(coeffs, j, q) for coeffs in polys]
        outside = st.one_of(st.just(p - 1), st.integers(2, p - 2))
        for e in range(dim):
            for k in range(th):
                if data.draw(st.booleans(), label=f"leave c[{e}][{k}]"):
                    rows[e][k] = rows[e][k] * data.draw(outside) % p
        if data.draw(st.booleans(), label="tamper a value"):
            e = data.draw(st.integers(0, dim - 1))
            values[e] = (values[e] + data.draw(st.integers(1, q - 1))) % q
        bundle = ShareBundle(j, tuple(values))
        commitments = tuple(tuple(row) for row in rows)
        assert vss.verify(bundle, transpose(commitments), params) == product_form_verify(
            bundle, commitments, params)

    @pytest.mark.parametrize("name", ["group", "group_2048"])
    def test_honest_rows_pass_and_single_tampers_fail(self, request, name):
        params = request.getfixturevalue(name)
        rng = random.Random(5)
        th, q = 13, params.q
        coeffs = [rng.randrange(q) for _ in range(th)]
        row = tuple(params.exps(coeffs))
        for j in range(1, 14):
            bundle = ShareBundle(j, (eval_poly(coeffs, j, q),))
            assert vss.verify(bundle, transpose((row,)), params)
            assert not vss.verify(ShareBundle(j, ((bundle.values[0] + 1) % q,)),
                                  transpose((row,)), params)
            for k in range(th):
                tampered = row[:k] + (row[k] * params.g % params.p,) + row[k + 1:]
                assert not vss.verify(bundle, transpose((tampered,)), params)

    @pytest.mark.parametrize("name", ["group", "group_2048"])
    def test_only_the_last_value_wrong_fails(self, request, name, rng):
        # verify computes every left-hand side in one call before it compares;
        # the last element must still be compared
        params = request.getfixturevalue(name)
        codec = FixedPointCodec(16, params.q, 4)
        bundles, commits = vss.share([0.5, -1.0, 2.0] * codec.lanes, 3, 4, params,
                                     codec, rng)
        for b in bundles:
            assert vss.verify(b, commits, params)
            last = (b.values[-1] + 1) % params.q
            assert not vss.verify(ShareBundle(b.eval_point, b.values[:-1] + (last,)),
                                  commits, params)

    def test_element_of_order_two_passes_both_forms_at_even_points(self, group):
        # -1 = p - 1 lies outside the order-q subgroup; raised to j^k it is 1
        # at an even j, so both forms accept it in place of any c_k, k >= 1
        coeffs = [7, 11, 13]
        row = group.exps(coeffs)
        row[1] = row[1] * (group.p - 1) % group.p
        for j, passes in ((2, True), (3, False)):
            bundle = ShareBundle(j, (eval_poly(coeffs, j, group.q),))
            assert vss.verify(bundle, transpose((row,)), group) is passes
            assert product_form_verify(bundle, (tuple(row),), group) is passes


class TestShareReconstruct:
    @pytest.mark.parametrize("name, th, n", [
        pytest.param(name, th, n, id=f"{th}-{n}" if name == "group" else f"{name}-{th}-{n}")
        for name in ("group", "tiny_group", "group_2048")
        for th, n in [(1, 1), (1, 4), (3, 4), (4, 7)]])
    def test_matches_the_pointwise_reference(self, request, name, th, n):
        # one polynomial per element: the secret, then th - 1 draws of the
        # rng; commitments g^a and values at points 1..n, one at a time
        params = request.getfixturevalue(name)
        if name == "tiny_group":  # whole values below 4 fit q = 23
            secret, codec = [1.0, -2.0, 3.0, 0.0], FixedPointCodec(0, params.q, 1)
        else:
            secret, codec = [1.25, -0.5, 3.0, 0.0], FixedPointCodec(16, params.q, 4)
        rng, ref = random.Random(7), random.Random(7)
        bundles, commits = vss.share(secret, th, n, params, codec, rng)
        q = params.q
        polys = [[s] + [ref.randrange(q) for _ in range(th - 1)]
                 for s in codec.encode_vector(secret)]
        assert rng.getstate() == ref.getstate()
        assert commits == tuple(tuple(pow(params.g, coeffs[k], params.p) for coeffs in polys)
                                for k in range(th))
        assert bundles == [ShareBundle(j, tuple(eval_poly(coeffs, j, q) for coeffs in polys))
                           for j in range(1, n + 1)]

    def test_roundtrip_every_subset(self, group, codec, rng):
        secret = [1.25, -0.5, 3.0]
        bundles, commits = vss.share(secret, 3, 4, group, codec, rng)
        assert all(vss.verify(b, commits, group) for b in bundles)
        for subset in itertools.combinations(bundles, 3):
            assert vss.reconstruct(subset, 3, group, codec, 3) == tuple(secret)

    @pytest.mark.parametrize("th", [0, -1])
    def test_threshold_below_one_raises(self, group, codec, rng, th):
        # th -1 used to take every bundle but the last and return a wrong sum
        bundles, _ = vss.share([1.0], 3, 4, group, codec, rng)
        with pytest.raises(ValueError, match="at least 1"):
            vss.reconstruct_encoded(bundles, th, group)

    def test_insufficient_shares(self, group, codec, rng):
        bundles, _ = vss.share([1.0], 3, 4, group, codec, rng)
        with pytest.raises(InsufficientSharesError):
            vss.reconstruct(bundles[:2], 3, group, codec, 1)

    def test_duplicate_points_rejected(self, group, codec, rng):
        bundles, _ = vss.share([1.0], 2, 4, group, codec, rng)
        with pytest.raises(MalformedInputError):
            vss.reconstruct([bundles[0], bundles[0]], 2, group, codec, 1)

    def test_threshold_bounds(self, group, codec, rng):
        with pytest.raises(ValueError):
            vss.share([1.0], 0, 4, group, codec, rng)
        with pytest.raises(ValueError):
            vss.share([1.0], 5, 4, group, codec, rng)

    @given(st.lists(st.integers(-1 << 20, 1 << 20), min_size=1, max_size=8),
           st.integers(0, 2**32))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, group, codec, raw, seed):
        secret = [v / codec.scale for v in raw]
        rng = random.Random(seed)
        bundles, commits = vss.share(secret, 3, 4, group, codec, rng)
        assert all(vss.verify(b, commits, group) for b in bundles)
        assert vss.reconstruct(bundles, 3, group, codec, len(secret)) == tuple(secret)


class TestSoundness:
    def test_tampered_share_fails_verify(self, group, codec, rng):
        bundles, commits = vss.share([0.5, -0.5], 3, 4, group, codec, rng)
        b = bundles[1]
        tampered = ShareBundle(
            eval_point=b.eval_point,
            values=(b.values[0], (b.values[1] + 1) % group.q))
        assert not vss.verify(tampered, commits, group)

    def test_swapped_recipients_fail_verify(self, group, codec, rng):
        bundles, commits = vss.share([0.5], 3, 4, group, codec, rng)
        swapped = ShareBundle(eval_point=1, values=bundles[1].values)
        assert not vss.verify(swapped, commits, group)

    def test_other_dealers_share_fails_verify(self, group, codec, rng):
        # what a reflected ciphertext opens to: a share of another polynomial
        bundles, _ = vss.share([0.5], 3, 4, group, codec, rng)
        _, commits = vss.share([0.5], 3, 4, group, codec, rng)
        assert not vss.verify(bundles[0], commits, group)

    def test_dimension_mismatch_raises(self, group, codec, rng):
        bundles, commits = vss.share([0.5], 3, 4, group, codec, rng)
        longer = dataclasses.replace(bundles[0], values=bundles[0].values * 2)
        with pytest.raises(MalformedInputError):
            vss.verify(longer, commits, group)

    def test_columns_of_unequal_length_or_another_dimension_raise(self, group, codec,
                                                                   rng):
        bundles, commits = vss.share([0.5, -0.5, 1.0], 3, 4, group, codec, rng)
        three, pair = bundles[0], ShareBundle(1, bundles[0].values[:2])
        for bundle, columns in (
                (three, commits[:2] + (commits[2][:-1],)),  # the last one short
                (pair, commits[:2]),  # two columns of three for two elements
                (ShareBundle(1, ()), ())):  # no column at all
            with pytest.raises(MalformedInputError):
                vss.verify(bundle, columns, group)


class TestHiding:
    def test_below_threshold_shares_are_consistent_with_any_secret(self):
        """Surrogate for the hiding property, checked by exhaustive
        enumeration over a tiny field: given th-1 = 2 shares, every candidate
        secret admits exactly one degree-2 polynomial, so the shares reveal
        nothing."""
        q = 23
        for secret in range(q):
            count = 0
            for a1 in range(q):
                for a2 in range(q):
                    coeffs = [secret, a1, a2]
                    if eval_poly(coeffs, 1, q) == 8 and eval_poly(coeffs, 2, q) == 11:
                        count += 1
            assert count == 1


class TestHomomorphism:
    def test_sum_shares_reconstructs_sum(self, group, codec, rng):
        secrets = [[1.0, 2.0], [0.25, -1.0], [-0.5, 0.5]]
        dealt = [vss.share(s, 3, 4, group, codec, rng)[0] for s in secrets]
        summed = [vss.sum_shares([dealt[d][j] for d in range(3)], group)
                  for j in range(4)]
        assert [b.eval_point for b in summed] == [1, 2, 3, 4]
        total = vss.reconstruct(summed, 3, group, codec, 2)
        assert total == (0.75, 1.5)

    def test_lone_bundle_comes_back_reduced(self, group):
        lone = ShareBundle(2, (group.q, group.q + 5, 7))
        assert vss.sum_shares([lone], group) == ShareBundle(2, (0, 5, 7))

    def test_sum_rejects_mismatched_points(self, group, codec, rng):
        a, _ = vss.share([1.0], 2, 4, group, codec, rng)
        b, _ = vss.share([1.0], 2, 4, group, codec, rng)
        with pytest.raises(MalformedInputError):
            vss.sum_shares([a[0], b[1]], group)


def deal_many(group, data):
    """A few dealers' shares and commitments, at 96/48: (n, th, dealt)."""
    n = data.draw(st.integers(1, 7), label="n")
    th = data.draw(st.integers(1, n), label="th")
    dealers = data.draw(st.integers(1, 5), label="dealers")
    dim = data.draw(st.integers(1, 12), label="dim")
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    codec = FixedPointCodec(16, group.q, dealers)
    dealt = [vss.share([rng.uniform(-4, 4) for _ in range(dim)], th, n, group, codec, rng)
             for _ in range(dealers)]
    return n, th, dealt


def changed(bundle, data, q):
    """bundle with one value moved by a nonzero amount mod q."""
    k = data.draw(st.integers(0, bundle.dimension - 1), label="element")
    delta = data.draw(st.integers(1, q - 1), label="delta")
    values = list(bundle.values)
    values[k] = (values[k] + delta) % q
    return dataclasses.replace(bundle, values=tuple(values))


class TestSummedChecks:
    """sum_commitments and consistent, the defended round's two checks on
    sums, at 96/48."""

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_summed_share_verifies_against_the_product(self, group, data):
        n, th, dealt = deal_many(group, data)
        j = data.draw(st.integers(0, n - 1), label="holder")
        bundles = [bs[j] for bs, _ in dealt]
        product = vss.sum_commitments([c for _, c in dealt], group)
        assert vss.verify(vss.sum_shares(bundles, group), product, group)
        # any one value of any one share changed moves the sum: it fails
        d = data.draw(st.integers(0, len(bundles) - 1), label="dealer")
        bundles[d] = changed(bundles[d], data, group.q)
        assert not vss.verify(vss.sum_shares(bundles, group), product, group)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_aggregated_shares_are_consistent(self, group, data):
        n, th, dealt = deal_many(group, data)
        aggregated = [vss.sum_shares([bs[j] for bs, _ in dealt], group) for j in range(n)]
        chosen = data.draw(st.permutations(aggregated), label="order")
        chosen = chosen[:data.draw(st.integers(th, n), label="m")]
        assert vss.consistent(chosen, th, group)
        # th + 1 or more shares fix the polynomial twice: one changed value
        # leaves them on none
        if len(chosen) > th:
            i = data.draw(st.integers(0, len(chosen) - 1), label="changed")
            chosen[i] = changed(chosen[i], data, group.q)
            assert not vss.consistent(chosen, th, group)

    def test_mismatched_shapes_raise(self, group):
        columns = ((1, 2), (3, 4))
        for sets in ([], [columns, ((1, 2),)], [columns, ((1,), (3, 4))],
                     [columns, ((1, 2), (3, 4), (5, 6))]):
            with pytest.raises(MalformedInputError):
                vss.sum_commitments(sets, group)
        for bundles in ([ShareBundle(1, (1, 2)), ShareBundle(2, (1,))],
                        [ShareBundle(1, (1,)), ShareBundle(1, (2,))]):
            with pytest.raises(MalformedInputError):
                vss.consistent(bundles, 1, group)
        with pytest.raises(InsufficientSharesError):
            vss.consistent([ShareBundle(1, (1,))], 2, group)

    def test_products_are_reduced(self, tiny_group):
        # over p = 47: 2 * 5 = 10, 24 * 3 = 72 = 25 mod 47
        assert vss.sum_commitments([((2,), (24,)), ((5,), (3,))], tiny_group) == (
            (10,), (25,))


class TestSerialization:
    def test_bundle_roundtrip(self, group, codec, rng):
        bundles, commits = vss.share([1.0, -2.0], 3, 4, group, codec, rng)
        for b in bundles:
            assert vss.parse_bundle(b.to_bytes(), b.eval_point, 2) == b
        assert vss.parse_commitments(vss.commitments_to_bytes(commits), 3, 2) == commits

    def test_truncated_bundle_rejected(self, group, codec, rng):
        bundles, _ = vss.share([1.0], 3, 4, group, codec, rng)
        data = bundles[0].to_bytes()
        with pytest.raises(MalformedInputError):
            vss.parse_bundle(data[:-1], 1, 1)
        with pytest.raises(MalformedInputError):
            vss.parse_bundle(data + b"\x00", 1, 1)

    def test_truncated_commitments_rejected(self, group, codec, rng):
        _, commits = vss.share([1.0], 3, 4, group, codec, rng)
        with pytest.raises(MalformedInputError):
            vss.parse_commitments(vss.commitments_to_bytes(commits)[:-2], 3, 1)

    def test_coordinates_without_commitments_rejected(self):
        # 3 commitments of width 1: 3 columns of 1 or 1 column of 3, nothing else
        commitments = wire.pack_fixed([5, 6, 7])
        assert vss.parse_commitments(commitments, 3, 1) == ((5,), (6,), (7,))
        assert vss.parse_commitments(commitments, 1, 3) == ((5, 6, 7),)
        for th, dim in ((2, 1), (2, 2), (3, 2), (1, 2), (3, 0)):
            with pytest.raises(MalformedInputError):
                vss.parse_commitments(commitments, th, dim)

    def test_empty_commitments_roundtrip(self):
        # a zero-dimension vector's commitments are th empty columns
        empty = ((), (), ())
        assert vss.parse_commitments(vss.commitments_to_bytes(empty), 3, 0) == empty

    @given(st.integers(1, 5), st.integers(0, 4), st.data())
    def test_columns_roundtrip(self, th, dim, data):
        columns = tuple(tuple(data.draw(st.lists(st.integers(0, 2**100), min_size=dim,
                                                 max_size=dim)))
                        for _ in range(th))
        data_bytes = vss.commitments_to_bytes(columns)
        assert vss.parse_commitments(data_bytes, th, dim) == columns
        # column by column: the values of column k follow those of column k - 1
        assert wire.unpack_fixed(data_bytes) == sum(columns, ())

    def test_zero_width_rejected_before_allocating(self):
        # count 2^32 - 1 at width 0: raises on the header alone
        header = wire.u32(2**32 - 1) + wire.u32(0)
        tracemalloc.start()
        try:
            for parse in (vss.parse_bundle, vss.parse_commitments):
                with pytest.raises(MalformedInputError):
                    parse(header, 1, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_values_past_the_end_rejected(self):
        # count 2 at width 3 needs 6 bytes; 5 are there
        short = wire.u32(2) + wire.u32(3) + bytes(5)
        assert vss.parse_bundle(short + b"\x00", 1, 2).values == (0, 0)
        with pytest.raises(MalformedInputError):
            vss.parse_bundle(short, 1, 2)
        with pytest.raises(MalformedInputError):
            vss.parse_commitments(short, 1, 2)
        # a count whose values could not fit in any real input
        huge = wire.u32(2**32 - 1) + wire.u32(2**32 - 1)
        with pytest.raises(MalformedInputError):
            vss.parse_bundle(huge, 1, 2**32 - 1)

    def test_trailing_byte_rejected(self, group, codec, rng):
        bundles, commits = vss.share([1.0, -2.0], 3, 4, group, codec, rng)
        with pytest.raises(MalformedInputError):
            vss.parse_bundle(bundles[0].to_bytes() + b"\x00", 1, 2)
        with pytest.raises(MalformedInputError):
            vss.parse_commitments(vss.commitments_to_bytes(commits) + b"\x00", 3, 2)
