import hashlib
import json
from fractions import Fraction
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from sidlab import verify
from sidlab.graphs import (
    ReplacementSpec,
    Theorem12Case,
    classify_theorem12,
    generalized_theta,
)
from sidlab.homdensity import deficit, holder_lower_bound
from sidlab.stepgraphon import StepGraphon, local_density_deficit
from sidlab.verify import (
    SUITES,
    SuiteReport,
    _run_suite,
    _theorem12_instances,
    _trial_seeds,
    sidorenko_family_instances,
    verify_counting_identity,
    verify_flower_knrs,
    verify_holder,
    verify_local_density,
    verify_sidorenko_families,
)


def strip_runtime(report):
    out = report.to_json_dict()
    out.pop("runtime_ms")
    return out


def test_counting_identity_small_run_passes():
    rep = verify_counting_identity(trials=30, seed=11)
    assert rep.passed
    assert rep.trials == 30
    assert rep.max_gap == 0.0  # exact equality throughout


def test_counting_identity_deterministic():
    a = verify_counting_identity(trials=15, seed=4)
    b = verify_counting_identity(trials=15, seed=4)
    assert strip_runtime(a) == strip_runtime(b)
    c = verify_counting_identity(trials=15, seed=5)
    assert strip_runtime(a) != strip_runtime(c)


def test_local_density_small_run_passes():
    rep = verify_local_density(trials=8, seed=2)
    assert rep.passed
    assert rep.max_gap <= 1e-9


def test_sidorenko_families_small_run_passes():
    rep = verify_sidorenko_families(trials=2, seed=3)
    assert rep.passed
    # every named instance plus the exact tree trials
    assert rep.trials == 2 * (len(sidorenko_family_instances()) + 1)


def test_flower_small_run_passes():
    rep = verify_flower_knrs(trials=12, seed=6)
    assert rep.passed


def test_holder_small_run_passes():
    rep = verify_holder(trials=12, seed=8)
    assert rep.passed


def test_report_json_roundtrip():
    rep = verify_flower_knrs(trials=5, seed=1)
    data = json.loads(json.dumps(rep.to_json_dict()))
    back = SuiteReport.from_json_dict(data)
    assert strip_runtime(back) == strip_runtime(rep)
    assert back.runtime_ms == rep.runtime_ms


def all_checks():
    """Every check function the suites run, with its variant bound."""
    return [
        verify._check_counting_identity,
        partial(verify._check_local_density, 0),
        partial(verify._check_local_density, 1),
        *(partial(verify._check_family, name, graph)
          for name, graph in sidorenko_family_instances()),
        verify._check_tree,
        verify._check_flower,
        verify._check_holder_equality,
        verify._check_holder_inequality,
    ]


def test_size_override_at_drawn_sizes_reproduces_the_trial():
    # The minimizer's top lattice point must be the drawn instance itself,
    # so every check draws its sizes before applying an override.
    mismatches = []
    for check in all_checks():
        for trial_seed in _trial_seeds(21, 6):
            gap, _, sizes = check(trial_seed)
            again, _, sizes_again = check(trial_seed, sizes)
            if (again, sizes_again) != (gap, sizes):
                mismatches.append((check, trial_seed, sizes))
    assert mismatches == []


def test_suite_failures_are_minimized_to_first_lattice_point(monkeypatch):
    # Lowering every exact deficit by 1 fails every flower check at every
    # size, so each trial's witness must come from the lattice's first
    # point, n = 2.
    monkeypatch.setattr(verify, "deficit",
                        lambda *args, **kwargs: deficit(*args, **kwargs) - 1)
    rep = verify_flower_knrs(trials=4, seed=13)
    seeds = _trial_seeds(13, 4)
    assert [rec["trial_seed"] for rec in rep.failures] == seeds
    for rec, trial_seed in zip(rep.failures, seeds):
        first = verify._check_flower(trial_seed, (2,))[1]
        assert rec == {**first, "trial_seed": trial_seed, "minimized": True}
        assert rec["inputs"]["graphon"]["n"] == 2


@pytest.fixture
def fresh_family_draws():
    # a cached family draw keeps the graphon it was drawn with, so a test
    # that patches the draw starts and ends with no draws
    verify._family_draw.cache_clear()
    yield
    verify._family_draw.cache_clear()


def test_family_suite_draws_one_graphon_per_trial(monkeypatch,
                                                  fresh_family_draws):
    draws = []

    def counting(rng, n, *args):
        draws.append(n)
        return random_regular_graphon(rng, n, *args)

    random_regular_graphon = verify._random_regular_graphon
    monkeypatch.setattr(verify, "_random_regular_graphon", counting)
    rep = verify_sidorenko_families(trials=3, seed=5)
    assert rep.passed
    assert rep.trials == 3 * (len(sidorenko_family_instances()) + 1)
    # one graphon per trial serves all the families, one more the tree
    assert len(draws) == 2 * 3


def raised_bound(*args, **kwargs):
    return SimpleNamespace(value=holder_lower_bound(*args, **kwargs).value + 1)


def lowered_deficit(*args, **kwargs):
    return deficit(*args, **kwargs) - 1


def full_density_target(kernel, target):
    return local_density_deficit(kernel, Fraction(1))


# Each exact check, the module-level dependency patched to make every trial
# fail, and whether the check decides an identity (gap -|lhs - rhs|) or a
# bound (gap lhs - rhs).  The integral branch of the Hölder inequality is
# covered by test_holder_inequality_is_exact_for_integral_exponents.
FORCED_FAILURES = {
    "lemma31": ([verify._check_counting_identity],
                "counting_kernel", lambda w, gadget: w, True),
    "even_theta_kernel": ([partial(verify._check_local_density, 0)],
                          "local_density_deficit", full_density_target, False),
    "hadamard_attachment": ([partial(verify._check_local_density, 1)],
                            "local_density_deficit", full_density_target,
                            False),
    "family": ([partial(verify._check_family, name, graph)
                for name, graph in sidorenko_family_instances()],
               "deficit", lowered_deficit, False),
    "tree": ([verify._check_tree], "deficit", lowered_deficit, True),
    "flower": ([verify._check_flower], "deficit", lowered_deficit, False),
    "holder_equality": ([verify._check_holder_equality],
                        "holder_lower_bound", raised_bound, True),
}


@pytest.mark.parametrize("case", sorted(FORCED_FAILURES))
def test_exact_failures_are_recorded_and_minimized(case, monkeypatch,
                                                   fresh_family_draws):
    checks, name, patched, identity = FORCED_FAILURES[case]
    monkeypatch.setattr(verify, name, patched)
    seeds = _trial_seeds(9, 3)
    tasks = [(check, s) for s in seeds for check in checks]
    rep = _run_suite(case, 9, tasks)
    assert [rec["trial_seed"] for rec in rep.failures] == [s for _, s in tasks]
    for rec, (check, trial_seed) in zip(rep.failures, tasks):
        # every size fails, so the witness is the lattice's first point
        first = check(trial_seed, (2,) * len(check(trial_seed)[2]))[1]
        assert rec == {**first, "trial_seed": trial_seed, "minimized": True}
        assert isinstance(rec["lhs"], str) and isinstance(rec["rhs"], str)
        diff = Fraction(rec["lhs"]) - Fraction(rec["rhs"])
        if identity:
            assert diff != 0 and rec["gap"] == -abs(float(diff))
        else:
            assert diff < 0 and rec["gap"] == float(diff)
        # the record is plain JSON: every rational written as "p/q"
        assert json.loads(json.dumps(rec)) == rec
        if "witness" in rec:
            assert all(0 <= Fraction(x) <= 1 for x in rec["witness"])


@pytest.mark.parametrize("name", sorted(SUITES))
def test_passing_suites_serialize_no_graphon(name, monkeypatch):
    # a check serializes its inputs only for a failure record
    calls = []
    to_json_dict = StepGraphon.to_json_dict

    def counting(self, *args, **kwargs):
        calls.append(self)
        return to_json_dict(self, *args, **kwargs)

    monkeypatch.setattr(StepGraphon, "to_json_dict", counting)
    rep = SUITES[name](trials=4, seed=3)
    assert rep.passed
    assert calls == []


def test_holder_inequality_is_exact_for_integral_exponents(monkeypatch):
    # Raising the bound by 1 fails every trial.  A trial whose path
    # exponents are all integral is decided and recorded in rationals, the
    # others in float.
    def raised(*args, **kwargs):
        bound = holder_lower_bound(*args, **kwargs)
        return SimpleNamespace(value=bound.value + 1, mode=bound.mode)

    monkeypatch.setattr(verify, "holder_lower_bound", raised)
    kinds = []
    for trial_seed in _trial_seeds(606, 20):
        gap, rec, _ = verify._check_holder_inequality(trial_seed)
        spec = ReplacementSpec.from_json_dict(rec["inputs"]["spec"])
        integral = all(a.denominator == 1 for a in spec.alphas().values())
        if integral:
            assert isinstance(rec["lhs"], str) and isinstance(rec["rhs"], str)
            diff = Fraction(rec["lhs"]) - Fraction(rec["rhs"])
            assert diff < 0 and gap == float(diff)
        else:
            assert gap == rec["lhs"] - rec["rhs"] < 0
        kinds.append(integral)
    assert set(kinds) == {True, False}


def test_runner_walks_the_size_lattice_in_product_order():
    def check(trial_seed, sizes=None):
        n, v = sizes if sizes is not None else (4, 5)
        if n >= 3 and v >= 4:
            return -1.0, {"inputs": {"n": n, "v": v}, "gap": -1.0}, (n, v)
        return 0.0, None, (n, v)

    rep = _run_suite("fake", 0, [(check, 17)])
    assert rep.failures == [
        {"inputs": {"n": 3, "v": 4}, "gap": -1.0, "trial_seed": 17,
         "minimized": True}
    ]
    assert rep.max_gap == 1.0


def test_theorem12_instances_are_classifier_approved():
    for name, spec in _theorem12_instances():
        case = classify_theorem12(spec).case
        assert case in (Theorem12Case.DIVISIBLE, Theorem12Case.SINGLE_LENGTH), name


def test_family_instances_are_bipartite():
    for name, graph in sidorenko_family_instances():
        assert graph.is_bipartite(), name


@pytest.mark.parametrize("name", sorted(SUITES))
@pytest.mark.parametrize("trials", [0, -3])
def test_suites_reject_fewer_than_one_trial(name, trials):
    # a suite of no trials would pass having checked nothing
    with pytest.raises(ValueError, match="at least one trial"):
        SUITES[name](trials=trials, seed=0)


SUITE_INTEGERS = {
    "trial count": lambda x: dict(trials=x, seed=0),
    "seed": lambda x: dict(trials=1, seed=x),
}


@pytest.mark.parametrize("name", sorted(SUITES))
@pytest.mark.parametrize("what", SUITE_INTEGERS)
@pytest.mark.parametrize("bad", [True, 2.0, 2.5])
def test_suites_reject_non_integer_counts(name, what, bad):
    # trials=True ran one trial, and seed=2.5 wrote a report that
    # SuiteReport.from_json_dict refused
    with pytest.raises(ValueError, match=f"{what} {bad} is not an integer"):
        SUITES[name](**SUITE_INTEGERS[what](bad))


def test_suite_report_seed_is_a_plain_int():
    # an integer seed of another type reached the report as is, where json
    # could not write it
    rep = verify_flower_knrs(trials=1, seed=np.int64(3))
    assert type(rep.seed) is int
    assert json.loads(json.dumps(rep.to_json_dict()))["seed"] == 3


def test_odd_theta_families_come_from_generalized_theta():
    families = dict(sidorenko_family_instances())
    for name, lengths in (("odd_theta_31", [3, 1]), ("odd_theta_53", [5, 3]),
                          ("odd_theta_331", [3, 3, 1])):
        assert families[name] == generalized_theta(lengths, "odd").graph


def test_suite_registry_complete():
    assert set(SUITES) == {
        "lemma31", "local_density", "sidorenko_families", "flower_knrs",
        "holder",
    }


# sha256 of each suite's report at seeds 0, 7 and 123 (default trials, no
# runtime) as sorted JSON.  A change that alters the draws or the records on
# purpose re-records these and says so.
RECORDED_DIGESTS = {
    0: {
        "lemma31":
            "66a72ec06073bf0d2bbc2288372b518a9a2f7ccd699f2e1f39086d604d7a69bb",
        "local_density":
            "1da1a6cd0d86121bcd4b44915f724ad78e6c8690879bc79d946fc383beb0c230",
        "sidorenko_families":
            "bcac1a8442b55b77a4e2a8eaa7ac2a85cbfc8171ec5c86d517a6bfe84e8213b6",
        "flower_knrs":
            "9f36627dbeb823e127ea4f88217cd37c1a27effe1dd9f463af64521255d264cf",
        "holder":
            "b28049c19ead460115c6382b0eb5ff1d3747477997e074c86ac85f76ab4852c3",
    },
    7: {
        "lemma31":
            "185becd729fb5075bec0da0bbe483d72b487cb99d534fb33860491f1ef449a5e",
        "local_density":
            "6b335568d995d95239990d2d2843b714d62f74059ab9beda987e859498111e27",
        "sidorenko_families":
            "791e44ac5e3884696e66e88ec3473adb6be12723044f72dcd0951a0faa1132eb",
        "flower_knrs":
            "5b69be4f548b34a02c07cd1b11e9386a77deca6e3aec406e75c158b721d8e164",
        "holder":
            "43c063546371cd2d016dabeb0e1a9310227a81d1a6145c8fe12151652dfa51e7",
    },
    123: {
        "lemma31":
            "e88503171dc522b306d95b4a8b03cf5c3b4ee94e36512fc746cfe46f5ea64a17",
        "local_density":
            "d2d781e8b35e7922ee264a89d5074a08ade9e4c2fdb3c9d47baaa76fe556e196",
        "sidorenko_families":
            "4355b6d3dc2d09b8cd10249e7bf8302c8efeffec7a4408034b04b48171e7cf60",
        "flower_knrs":
            "eb22c06649fe97fe54a5cb746a047a78f529bb8b4c475471a37f4741dd636fb3",
        "holder":
            "e2b3b9a8f2622a342ffb148bfc1240d54fc26c9735f5411ad3571e79667782bd",
    },
}


def test_suite_reports_match_recorded_digests():
    digests = {
        seed: {
            name: hashlib.sha256(json.dumps(strip_runtime(run(seed=seed)),
                                            sort_keys=True).encode()
                                 ).hexdigest()
            for name, run in SUITES.items()
        }
        for seed in RECORDED_DIGESTS
    }
    assert digests == RECORDED_DIGESTS
