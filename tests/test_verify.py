import json
from functools import partial

from sidlab import verify
from sidlab.graphs import (
    Theorem12Case,
    classify_theorem12,
)
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
    return report.to_json_dict(include_runtime=False)


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
    # A negative tolerance fails every flower check at every size, so each
    # trial's witness must come from the lattice's first point, n = 2.
    monkeypatch.setattr(verify, "FLOAT_TOL", -1.0)
    rep = verify_flower_knrs(trials=4, seed=13)
    seeds = _trial_seeds(13, 4)
    assert [rec["trial_seed"] for rec in rep.failures] == seeds
    for rec, trial_seed in zip(rep.failures, seeds):
        first = verify._check_flower(trial_seed, (2,))[1]
        assert rec == {**first, "trial_seed": trial_seed, "minimized": True}
        assert rec["inputs"]["graphon"]["n"] == 2


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
    for name, host, spec in _theorem12_instances():
        case = classify_theorem12(host, spec).case
        assert case in (Theorem12Case.DIVISIBLE, Theorem12Case.SINGLE_LENGTH), name


def test_family_instances_are_bipartite():
    for name, graph in sidorenko_family_instances():
        assert graph.is_bipartite(), name


def test_suite_registry_complete():
    assert set(SUITES) == {
        "lemma31", "local_density", "sidorenko_families", "flower_knrs",
        "holder",
    }
