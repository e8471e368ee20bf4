"""How the verification suite reports failures of the code it checks."""

import hashlib
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import gcd, lcm, prod
from pathlib import Path

import pytest

from qko import abelian, cli, groups, ktheory, oracles, verify
from qko.abelian import AbelianGroup
from qko.cyclotomic import NotRationalError
from qko.groups import GroupParams

P8 = GroupParams(8)


def _eta_pair_failing_on_nu3(monkeypatch, exc):
    # with max_nu = 2 only the rationality check uses the nu = 3 space form;
    # it evaluates the class sum of the oracle
    real = oracles.eta_pair

    def fake(space, sigma, bundle=None):
        if space.nu == 3:
            raise exc
        return real(space, sigma, bundle)

    monkeypatch.setattr(oracles, "eta_pair", fake)


def test_rationality_check_reports_irrational_sums(monkeypatch):
    _eta_pair_failing_on_nu3(monkeypatch, NotRationalError("irrational part"))
    checks = {c.name: c for c in verify._eta_checks(P8, 2)}
    check = checks["eta/rationality/ell8"]
    assert not check.passed
    assert "64 of 64" in check.actual and "irrational part" in check.actual
    assert all(c.passed for name, c in checks.items() if name != "eta/rationality/ell8")


def test_rationality_check_lets_internal_errors_propagate(monkeypatch):
    _eta_pair_failing_on_nu3(monkeypatch, KeyError("internal"))
    with pytest.raises(KeyError):
        verify._eta_checks(P8, 2)


def test_substrate_trials_keep_their_inputs_and_random_stream(monkeypatch):
    # the Smith-form matrices, the spans handed to the enumeration oracle and
    # the generator state after the last draw are pinned, so that sharing work
    # in the trial loop cannot change which trials run
    matrices, spans, rngs = [], [], []
    real_snf, real_span = verify.smith_normal_form, verify.brute_force_span

    def snf(mat):
        matrices.append(repr(mat))
        return real_snf(mat)

    def span(gens):
        spans.append(repr(gens))
        return real_span(gens)

    class Recorded(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            rngs.append(self)

    monkeypatch.setattr(verify, "smith_normal_form", snf)
    monkeypatch.setattr(verify, "brute_force_span", span)
    monkeypatch.setattr(verify.random, "Random", Recorded)
    assert all(c.passed for c in verify._arith_checks())
    assert (len(matrices), len(spans), len(rngs)) == (200, 272 + 150, 1)
    assert hashlib.sha256("\n".join(matrices).encode()).hexdigest() == (
        "7a3990dd2b7dc1778a1ae3e1f95cda41a1da6e1b847a8ce594f4452400911d8a")
    assert hashlib.sha256("\n".join(spans).encode()).hexdigest() == (
        "b6798d35b113928bf2212a9b557e8bdd732562be1cb4dbdbb07d0c5f458ce3e2")
    assert rngs[0].getrandbits(64) == 12936391567819795641


def _memo_tables():
    # every memo table of the package, read off each qko module loaded now
    return {obj for name, module in list(sys.modules.items()) if name.partition(".")[0] == "qko"
            for obj in vars(module).values() if hasattr(obj, "cache_clear")}


def test_verify_forms_each_fusion_product_once_and_class_values_on_integers(monkeypatch):
    # a count guard: within each order every product of two characters is
    # formed once, and the class values are built without the per-value Cyclo
    # path of char_value; the tables are emptied after each order, which also
    # resets their counts, so each order's are read just before that
    for table in _memo_tables():
        table.cache_clear()
    pairs, per_order, characters = [], [], set()
    product, class_values = groups.fusion_product, oracles.class_values
    release = verify._release_memo_tables

    def record_product(f1, f2):
        pairs.append((f1, f2))
        return product(f1, f2)

    def record_values(f):
        characters.add(f)
        return class_values(f)

    def record_release():
        per_order.append((product.cache_info().misses, len(set(pairs)), len(pairs)))
        pairs.clear()
        release()

    monkeypatch.setattr(groups, "fusion_product", record_product)
    monkeypatch.setattr(oracles, "class_values", record_values)
    monkeypatch.setattr(verify, "_release_memo_tables", record_release)
    assert all(c.passed for c in verify.run_verification([8, 16], 4, 3))
    assert len(per_order) == 2
    assert all(misses == distinct < formed for misses, distinct, formed in per_order), per_order

    def refuse(*args):
        raise AssertionError("class values went through a per-value Cyclo")

    want = {f: class_values(f) for f in characters}
    class_values.cache_clear()
    monkeypatch.setattr(oracles, "char_value", refuse)
    monkeypatch.setattr(oracles, "gamma_trace", refuse)
    assert len(want) > 20
    assert {f: class_values(f) for f in characters} == want


def test_verify_job_does_a_fixed_amount_of_work(monkeypatch, capsys):
    # a work-count guard on the benchmark's verify job: a faster kernel must
    # do the same Smith eliminations and eta pairings, none skipped or shared
    for table in _memo_tables():
        table.cache_clear()
    moduli, pairings = [], Counter()
    diagonalize = abelian._diagonalize

    def record_elimination(a, rows, cols, modulus=0):
        moduli.append(modulus)
        return diagonalize(a, rows, cols, modulus)

    def counted(caller):
        pair = getattr(caller, "eta_pair")

        def record_pairing(*args):
            pairings[caller.__name__] += 1
            return pair(*args)

        return record_pairing

    monkeypatch.setattr(abelian, "_diagonalize", record_elimination)
    for caller in (ktheory, verify):
        monkeypatch.setattr(caller, "eta_pair", counted(caller))
    assert cli.main(["verify", "--ell", "8,16,32", "--max-nu", "6", "--max-k", "5"]) == 0
    assert capsys.readouterr().out.endswith(" checks passed\n")
    # smith_normal_form eliminates with no modulus, and each span modulo its 2d
    assert (len(moduli), moduli.count(0)) == (737, 200)
    assert pairings == {"qko.ktheory": 960, "qko.verify": 999}


def test_verify_empties_every_memo_table_after_each_order():
    first = verify.run_verification([8, 16], 4, 3)
    tables = _memo_tables()
    assert len(tables) > 10
    assert all(table.cache_info().currsize == 0 for table in tables)
    assert verify.run_verification([8, 16], 4, 3) == first


def test_verify_runs_one_full_collection_after_each_order(monkeypatch):
    # the collection empties the free lists that the emptied memo tables left
    calls = []
    monkeypatch.setattr(verify.gc, "collect", lambda *args: calls.append(args))
    verify.run_verification([8, 16], 2, 1)
    assert calls == [(), ()]


_NEW_MODULE = """
import functools, sys, types
sys.path.insert(0, sys.argv[1])
import qko
module = types.ModuleType("qko.memoised")
module.square = functools.lru_cache(maxsize=None)(lambda x: x * x)
sys.modules[module.__name__] = module
module.square(3)
from qko import verify
verify._release_memo_tables()
print(module.square.cache_info().currsize)
"""


def test_verify_empties_the_memo_tables_of_any_qko_module():
    # a memoised function in a module loaded before qko.verify, and named nowhere in it
    src = str(Path(verify.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", _NEW_MODULE, src],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]


def test_gamma_fold_names_each_failing_class_once(monkeypatch):
    # gamma_3 is made wrong at xi^2 alone: one class of the 11 at ell 32 fails,
    # at both of the u = 3 comparisons
    real = oracles.gamma_trace

    def wrong_at_xi2(params, u, g):
        value = real(params, u, g)
        return value + 1 if u == 3 and (g.a, g.b) == (2, 0) else value

    monkeypatch.setattr(oracles, "gamma_trace", wrong_at_xi2)
    checks = {c.name: c for c in verify._character_checks(GroupParams(32))}
    check = checks.pop("chars/gamma-fold/ell32")
    assert not check.passed
    assert check.actual == "1 of 11: xi^2 at u=-3, u=3+ell/2"
    assert all(c.passed for c in checks.values())


def _tuple_span(generators):
    # the reference for brute_force_span: its earlier form, which held each
    # element as a tuple of residues mod 2d in a set, with the same peel
    d = lcm(*(x.denominator for g in generators for x in g))
    modulus = 2 * d
    gens = [tuple(x.numerator * (d // x.denominator) % modulus for x in g) for g in generators]
    elements = {(0,) * len(gens[0])}
    frontier = list(elements)
    while frontier:
        base = frontier.pop()
        for g in gens:
            nxt = tuple((a + b) % modulus for a, b in zip(base, g))
            if nxt not in elements:
                elements.add(nxt)
                frontier.append(nxt)
    orders = Counter(modulus // gcd(modulus, *e) for e in elements)
    divisors = [n for n in range(1, modulus + 1) if modulus % n == 0]
    killed = {n: sum(c for o, c in orders.items() if n % o == 0) for n in divisors}
    factors, rest = [], len(elements)
    while rest > 1:
        factors.append(next(n for n in divisors
                            if killed[n] == rest * prod(gcd(n, f) for f in factors)))
        rest //= factors[-1]
    return AbelianGroup(reversed(factors))


@pytest.mark.parametrize("seed", range(4))
def test_brute_force_span_matches_the_tuple_enumeration(seed):
    # 1-3 coordinates, 1-4 generators, 2d up to 96 with every power of two
    # among the moduli, and each span with a residue at 2d - 1 (entry 2 - 1/d),
    # where a field's sum of two residues is largest; spans stay under 10^4
    # elements so the reference stays quick
    rng = random.Random(seed)
    moduli = [2, 4, 8, 16, 32, 64, 6, 12, 24, 30, 48, 96]
    cases = 0
    while cases < 40:
        modulus, n, k = rng.choice(moduli), rng.randint(1, 3), rng.randint(1, 4)
        if modulus ** min(n, k) > 10_000:
            continue
        d = modulus // 2
        residues = [[rng.randrange(modulus) for _ in range(n)] for _ in range(k)]
        residues[rng.randrange(k)][rng.randrange(n)] = modulus - 1
        gens = [tuple(Fraction(r, d) for r in row) for row in residues]
        assert verify.brute_force_span(gens) == _tuple_span(gens), gens
        cases += 1
