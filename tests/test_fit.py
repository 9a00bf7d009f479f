import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import expit

from nlconcepts import io
from nlconcepts.fit import (
    ALL_PARAM_GROUPS,
    BETA,
    SLOTS,
    AdamState,
    DegenerateTargets,
    FitConfig,
    InvalidK,
    NonFinite,
    NumberTask,
    ShapeTask,
    adam_step,
    bce_loss_and_slope,
    fit_params,
    kfold_rows,
    loss_and_grad,
    pack_params,
    r_squared,
    reparam,
    stack_tasks,
    trainable_mask,
)
from nlconcepts.harness import (
    ExperimentConfig,
    build_number_task,
    build_shape_task,
    default_params,
    group_judgments,
    run_experiment,
)
from nlconcepts.io import make_hypothesis
from nlconcepts.pcg64 import permutation
from nlconcepts.prior import FeatureExtractor
from nlconcepts.types import (
    Hypothesis,
    LearningCurve,
    ModelParams,
    NumberExampleSet,
    ShapeObject,
    Trial,
    Unparsed,
)

import oracle
from conftest import FIXTURES, synthetic_shape_curve, synthetic_shape_pool

DIM = 12


def number_task(cfg=None, ext=None, tests=None):
    cfg = cfg or ExperimentConfig(domain="number", prior="tuned", feature_dim=DIM)
    ext = ext or FeatureExtractor(dim=DIM)
    pool = [
        make_hypothesis("the number is even", "even(x)", "number"),
        make_hypothesis("the number is a power of 2", "power(2, x)", "number"),
        make_hypothesis("the number is less than 30", "x < 30", "number"),
        make_hypothesis("nonsense", "???", "number"),
    ]
    tests = tests or [(32, 0.85, "t32"), (10, 0.55, "t10"), (97, 0.08, "t97")]
    return build_number_task(cfg, pool, NumberExampleSet([2, 4, 8, 16]), tests, ext)


def shape_task(cfg=None, ext=None):
    cfg = cfg or ExperimentConfig(domain="shape", prior="tuned", feature_dim=DIM)
    ext = ext or FeatureExtractor(dim=DIM)
    objs = [
        ShapeObject("triangle", "green", 1),
        ShapeObject("circle", "blue", 2),
        ShapeObject("rectangle", "green", 3),
    ]
    batches = [
        [Trial(objs, objs[0], True), Trial(objs, objs[1], False)],
        [Trial(objs, objs[2], False), Trial(objs, objs[0], True)],
    ]
    curve = LearningCurve("c1", "green triangles", batches, [0.7, 0.2, 0.35, 0.9])
    pool = [
        make_hypothesis(
            "something is positive if it is a green triangle",
            "this.color == green and this.shape == triangle",
            "shape",
        ),
        make_hypothesis(
            "something is positive if it is green", "this.color == green", "shape"
        ),
        Hypothesis("something is positive if it sparkles", Unparsed("???"), None, 2),
    ]
    return build_shape_task(cfg, pool, curve, ext)


def fd_check(u, tasks, dim, h=1e-4, rtol=1e-3):
    _, grad, _ = loss_and_grad(u, tasks, dim)
    for i in range(len(u)):
        up, dn = u.copy(), u.copy()
        up[i] += h
        dn[i] -= h
        lp, _, _ = loss_and_grad(up, tasks, dim, want_grad=False)
        ln, _, _ = loss_and_grad(dn, tasks, dim, want_grad=False)
        fd = (lp - ln) / (2 * h)
        denom = max(1e-8, abs(fd), abs(grad[i]))
        assert abs(fd - grad[i]) / denom < rtol or abs(fd - grad[i]) < 1e-7, (
            f"param {i}: analytic {grad[i]} vs fd {fd}"
        )


def random_u(rng):
    params = ModelParams(
        theta=rng.normal(0, 0.3, DIM),
        epsilon=float(rng.uniform(0.05, 0.6)),
        alpha=float(rng.uniform(0.2, 0.8)),
        beta=float(rng.uniform(0.2, 2.0)),
        temperature=float(rng.uniform(0.5, 2.0)),
        platt_a=float(rng.uniform(0.5, 2.0)),
        platt_b=float(rng.uniform(-0.5, 0.5)),
    )
    return pack_params(params)


@pytest.mark.parametrize("stray", [3, -1])
def test_a_parameter_vector_that_disagrees_with_dim_is_a_value_error(stray):
    """A vector with `stray` theta entries more than `dim` says would be
    read with its slots shifted (theta[dim] as epsilon); it is refused,
    one vector or a stack, naming both widths."""
    u = pack_params(ModelParams(theta=np.zeros(DIM + stray)))
    width, want = DIM + stray + len(SLOTS), DIM + len(SLOTS)
    for arg in (u, np.tile(u, (2, 1))):
        with pytest.raises(ValueError, match=rf"of {width} entries, not dim \+ {len(SLOTS)} = {want}"):
            loss_and_grad(arg, [number_task()], DIM)


def test_gradients_match_finite_differences_number():
    rng = np.random.default_rng(0)
    tasks = [number_task()]
    for _ in range(3):
        fd_check(random_u(rng), tasks, DIM)


def test_gradients_match_finite_differences_shape():
    rng = np.random.default_rng(1)
    tasks = [shape_task()]
    for _ in range(3):
        fd_check(random_u(rng), tasks, DIM)


def test_gradients_match_finite_differences_shape_multibatch():
    """Five batches under the tuned prior: nothing is visible before
    batch 2, rules join at batches 2 to 5, one is a duplicate and two
    never parse, so the visibility mask changes from batch to batch."""
    cfg = ExperimentConfig(domain="shape", prior="tuned", feature_dim=DIM)
    task = build_shape_task(cfg, synthetic_shape_pool(), synthetic_shape_curve(), FeatureExtractor(dim=DIM))
    assert not task.visible[0].any()
    assert (task.visible[1:].sum(axis=1) < task.visible.shape[1]).all()
    rng = np.random.default_rng(3)
    for _ in range(3):
        fd_check(random_u(rng), [task], DIM)


def test_fit_config_rejects_removed_keys():
    removed = (("seed", 0), ("clamp_delta", 1e-6), ("adam_beta1", 0.9), ("adam_beta2", 0.999), ("adam_eps", 1e-8))
    for key, value in removed:
        with pytest.raises(TypeError, match=key):
            FitConfig(**{key: value})


def test_gradients_match_finite_differences_mixed():
    rng = np.random.default_rng(2)
    tasks = [number_task(), shape_task()]
    for _ in range(3):
        fd_check(random_u(rng), tasks, DIM)


def test_reparam():
    assert reparam(0.0, "unit_interval") == pytest.approx(0.5)
    assert reparam(0.0, "positive") == pytest.approx(1.0)
    assert 0 < reparam(-50, "unit_interval") < 1e-6
    with pytest.raises(ValueError):
        reparam(0.0, "banana")


def test_reparam_unit_interval_is_scipy_expit_bitwise():
    rng = np.random.default_rng(3)
    sweep = np.concatenate(
        [
            np.linspace(-800.0, 800.0, 16_001),
            rng.normal(0.0, 20.0, 20_000),
            [-745.2, -709.9, -709.7, np.inf, -np.inf, np.nan],
        ]
    )
    got = [reparam(u, "unit_interval") for u in sweep]
    assert all(type(g) is float for g in got)
    np.testing.assert_array_equal(got, expit(sweep))
    assert [reparam(float(u), "unit_interval") for u in sweep[::100]] == got[::100]


def test_pack_unpack_round_trip():
    from nlconcepts.fit import _unpack

    p = ModelParams(
        theta=np.arange(3, dtype=float),
        epsilon=0.23,
        alpha=0.61,
        beta=1.7,
        temperature=0.8,
        platt_a=1.4,
        platt_b=-0.2,
    )
    q = _unpack(pack_params(p))
    np.testing.assert_allclose(q.theta, p.theta)
    assert q.epsilon == pytest.approx(p.epsilon)
    assert q.alpha == pytest.approx(p.alpha)
    assert q.beta == pytest.approx(p.beta)
    assert q.temperature == pytest.approx(p.temperature)
    assert q.platt_a == p.platt_a
    assert q.platt_b == p.platt_b
    # a beta of 0 has no log: it packs to -30, which unpacks to exp(-30)
    u = pack_params(dataclasses.replace(p, beta=0.0))
    assert u[BETA] == -30.0
    assert _unpack(u).beta == pytest.approx(math.exp(-30.0))
    # one slot per ModelParams field after theta, in the order of the fields
    assert [f.name for f in dataclasses.fields(ModelParams)] == ["theta"] + [name for name, _, _ in SLOTS]


def test_bce_loss_and_slope():
    def bce(pred, r, counted=True):
        return bce_loss_and_slope(np.array([pred]), np.array([r * counted]), np.array([(1 - r) * counted]))

    assert bce(0.5, 0.5)[0] == pytest.approx(math.log(2))
    assert bce(1.0, 1.0)[0] == pytest.approx(-math.log(1 - 1e-6))
    # clamp keeps pred=0 finite, and its slope 0
    loss, slope = bce(0.0, 1.0)
    assert math.isfinite(loss) and slope.tolist() == [0.0]
    # inside the clamp the slope is (p - r) / (p (1 - p)); a row not counted adds nothing
    assert bce(0.3, 0.8)[1][0] == pytest.approx((0.3 - 0.8) / (0.3 * 0.7))
    assert bce(0.3, 0.8, counted=False) == (0.0, pytest.approx([0.0]))
    rng = np.random.default_rng(4)
    pred, r = rng.uniform(0.01, 0.99, 20), rng.uniform(0.0, 1.0, 20)
    loss, slope = bce_loss_and_slope(pred, r, 1.0 - r)
    h = 1e-6
    for k in range(20):
        up, dn = pred.copy(), pred.copy()
        up[k] += h
        dn[k] -= h
        fd = (bce_loss_and_slope(up, r, 1.0 - r)[0] - bce_loss_and_slope(dn, r, 1.0 - r)[0]) / (2 * h)
        assert slope[k] == pytest.approx(fd, rel=1e-5)
    assert loss == pytest.approx(-np.sum(r * np.log(pred) + (1 - r) * np.log(1 - pred)))


def test_kfold_rows_laws():
    rows = kfold_rows(23, 10, seed=0)
    assert rows.shape == (10, 23) and rows.dtype == bool
    # an exact partition: each row is held out by one fold alone
    np.testing.assert_array_equal((~rows).sum(axis=0), np.ones(23))
    sizes = (~rows).sum(axis=1)
    assert max(sizes) - min(sizes) <= 1
    # deterministic given the seed, different across seeds
    np.testing.assert_array_equal(rows, kfold_rows(23, 10, seed=0))
    assert (rows != kfold_rows(23, 10, seed=1)).any()
    for k in (0, 24, "10"):
        with pytest.raises(InvalidK):
            kfold_rows(23, k, seed=0)


@pytest.mark.parametrize("seed", range(5))
def test_kfold_rows_hold_out_the_seeded_permutations_strides(seed):
    """Fold i holds out exactly order[i::k] of the seeded permutation of
    the rows, the partition the folds have always been cut by; a k that
    is not an integer in 1..n is InvalidK, where a float would cut
    fractional folds."""
    for n in (1, 2, 7, 48, 61):
        order = np.random.default_rng(seed).permutation(n)
        for k in sorted({1, 2, 10, n} & set(range(1, n + 1))):
            rows = kfold_rows(n, k, seed)
            assert rows.shape == (k, n)
            for i in range(k):
                np.testing.assert_array_equal(np.flatnonzero(~rows[i]), np.sort(order[i::k]))
    for k in (2.5, 0):
        with pytest.raises(InvalidK):
            kfold_rows(48, k, 0)


@pytest.mark.parametrize("seed", [*range(300), 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**64, 2**200 + 12345])
def test_permutation_is_numpys_default_rng_permutation(seed):
    """`pcg64.permutation` is numpy's seeded permutation bit for bit,
    at seeds of one 32-bit word and of several, the largest past the
    four words SeedSequence's pool holds; a negative seed is a
    ValueError, as in numpy."""
    for n in (1, 2, 3, 7, 10, 48, 61, 100, 257, 1000):
        assert permutation(n, seed) == np.random.default_rng(seed).permutation(n).tolist()
    with pytest.raises(ValueError):
        permutation(3, -1 - seed)


def test_a_task_is_routed_by_its_class():
    """A task's domain is its class: no field can send a number task
    down the shape path."""
    for task in (number_task(), shape_task()):
        with pytest.raises(TypeError, match="domain"):
            dataclasses.replace(task, domain="shape")


def test_r_squared():
    assert r_squared([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)
    target = [1.0, 2.0, 3.0, 4.0]
    assert r_squared([2.5] * 4, target) == pytest.approx(0.0)
    assert r_squared([4, 3, 2, 1], target) < 0
    with pytest.raises(DegenerateTargets):
        r_squared([1, 2], [3, 3])
    with pytest.raises(ValueError):
        r_squared([1], [1])


def test_adam_step_hand_computed():
    u = np.array([1.0, -2.0])
    grad = np.array([0.5, -1.0])
    state = AdamState.zeros(2)
    start = u.copy()
    out = adam_step(u, grad, state, lr=0.1)
    assert out is u  # updated in place
    # first step: m_hat = grad, v_hat = grad^2 -> step ~ lr * sign(grad)
    expected = start - 0.1 * grad / (np.abs(grad) + 1e-8)
    np.testing.assert_allclose(out, expected, rtol=1e-6)
    assert state.t == 1
    # second step with same gradient keeps moving the same direction
    first = out.copy()
    out2 = adam_step(out, grad, state, lr=0.1)
    assert out2[0] < first[0] and out2[1] > first[1]
    # bit for bit the textbook step u - lr m_hat / (sqrt(v_hat) + eps)
    rng = np.random.default_rng(6)
    u, state = rng.normal(size=(3, 7)), AdamState.zeros((3, 7))
    want, m, v = u.copy(), np.zeros((3, 7)), np.zeros((3, 7))
    for t in range(1, 6):
        grad = rng.normal(size=(3, 7)) * 10.0 ** rng.integers(-8, 3)
        m = 0.9 * m + (1.0 - 0.9) * grad
        v = 0.999 * v + (1.0 - 0.999) * grad**2
        m_hat, v_hat = m / (1.0 - 0.9**t), v / (1.0 - 0.999**t)
        want = want - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
        adam_step(u, grad, state, lr=0.01)
        np.testing.assert_array_equal(state.m, m)
        np.testing.assert_array_equal(state.v, v)
        np.testing.assert_array_equal(u, want)


def test_trainable_mask():
    mask = trainable_mask(3, ("theta", "platt"))
    assert mask.tolist() == [True] * 3 + [False] * 4 + [True, True]
    mask2 = trainable_mask(0, ("epsilon", "beta"))
    assert mask2.tolist() == [True, False, True, False, False, False]
    # read in SLOTS order, each group's mask marks that group's slots alone
    for group in ALL_PARAM_GROUPS[1:]:
        marked = [name for (name, _, _), m in zip(SLOTS, trainable_mask(0, (group,))) if m]
        assert marked == {"platt": ["platt_a", "platt_b"]}.get(group, [group])


def test_fit_config_validation():
    with pytest.raises(ValueError):
        FitConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        FitConfig(epochs=0)
    with pytest.raises(ValueError):
        FitConfig(trainable=("theta", "banana"))
    # a string is one name, not a list of one-letter groups
    with pytest.raises(ValueError, match="trainable must be a list of group names, not the string 'epsilon'"):
        FitConfig(trainable="epsilon")


def test_fit_reduces_loss_and_respects_mask():
    task = number_task()
    init = ModelParams(theta=np.zeros(DIM), epsilon=0.5, alpha=0.5, beta=1.0)
    cfg = FitConfig(epochs=200, trainable=("epsilon", "platt"))
    result = fit_params(cfg, [task], init)
    assert result.loss_trace[-1] < result.loss_trace[0]
    # untouched groups stay at their initial values
    np.testing.assert_array_equal(result.params.theta, init.theta)
    assert result.params.alpha == pytest.approx(0.5)
    assert result.params.beta == pytest.approx(1.0)
    assert result.params.temperature == pytest.approx(1.0)


def test_fit_is_deterministic():
    task = number_task()
    init = ModelParams(theta=np.zeros(DIM), epsilon=0.5, alpha=0.5, beta=1.0)
    cfg = FitConfig(epochs=50)
    r1 = fit_params(cfg, [task], init)
    r2 = fit_params(cfg, [task], init)
    np.testing.assert_array_equal(r1.params.theta, r2.params.theta)
    assert r1.loss_trace == r2.loss_trace
    h1 = loss_and_grad(pack_params(r1.params), [task], DIM, want_grad=False)[2]
    h2 = loss_and_grad(pack_params(r2.params), [task], DIM, want_grad=False)[2]
    assert h1 == h2


def test_all_unparsed_number_pool_predicts_platt_of_half():
    cfg = ExperimentConfig(domain="number", prior="uniform", feature_dim=0)
    ext = FeatureExtractor(dim=0)
    pool = [make_hypothesis("nonsense", "???", "number")]
    task = build_number_task(cfg, pool, NumberExampleSet([5]), [(10, 0.5, "a")], ext)
    params = ModelParams(theta=np.zeros(0), platt_b=0.7)
    _, _, records = loss_and_grad(pack_params(params), [task], 0, want_grad=False)
    assert records[0][1] == pytest.approx(float(expit(0.7)))
    # z = platt_b far beyond exp's range: the loss softplus(z) - r z stays
    # finite and exact, 0.5 |z| for the target 0.5 at either sign
    for b in (-800.0, 800.0):
        loss, grad, _ = loss_and_grad(pack_params(dataclasses.replace(params, platt_b=b)), [task], 0)
        assert loss == pytest.approx(400.0, rel=1e-15)
        assert grad[5] == pytest.approx(0.5 if b > 0 else -0.5, rel=1e-15)


def test_importance_weighting_task_uses_logq():
    cfg = ExperimentConfig(domain="number", weighting="importance", prior="uniform")
    ext = FeatureExtractor(dim=0)
    pool = [
        Hypothesis(
            "the number is even",
            make_hypothesis("e", "even(x)", "number").program,
            proposal_logprob=-2.0,
        ),
        Hypothesis(
            "the number is odd",
            make_hypothesis("o", "odd(x)", "number").program,
            proposal_logprob=-1.0,
        ),
    ]
    task = build_number_task(cfg, pool, NumberExampleSet([2]), [(4, 0.8, "a")], ext)
    np.testing.assert_allclose(task.base_logprior, [2.0, 1.0])
    # missing logq is an error under importance weighting
    from nlconcepts.posterior import MissingLogQ

    bad = [make_hypothesis("the number is even", "even(x)", "number")]
    with pytest.raises(MissingLogQ, match="'the number is even' lacks a proposal log-prob"):
        build_number_task(cfg, bad, NumberExampleSet([2]), [(4, 0.8, "a")], ext)


def fixture_number_tasks(cfg, keep=None):
    """One task per fixture example set; `keep` restricts the judgments
    (sets left without any are dropped)."""
    pools = {
        f"set{i:02d}": io.load_pool(FIXTURES / "number" / f"set{i:02d}.jsonl", "number")
        for i in range(1, 9)
    }
    by_set = group_judgments(io.load_number_judgments(FIXTURES / "number_judgments.csv"))
    ext = FeatureExtractor(dim=cfg.feature_dim)
    tasks = []
    for set_id, group in by_set.items():
        tests = [
            (j.test_number, j.mean_rating, f"{set_id}:{j.test_number}") for j in group
        ]
        tests = [t for t in tests if keep is None or t[2] in keep]
        if tests:
            tasks.append(
                build_number_task(cfg, pools[set_id], group[0].example_set, tests, ext)
            )
    return tasks


@pytest.mark.parametrize("prior", ["uniform", "tuned"])
def test_stacked_folds_match_fitting_each_fold_alone(prior):
    cfg = ExperimentConfig(
        domain="number", prior=prior, feature_dim=DIM if prior == "tuned" else 0
    )
    fit_cfg = FitConfig(epochs=50)
    batch = stack_tasks(fixture_number_tasks(cfg))
    folds = kfold_rows(len(batch.ids), 4, seed=3)
    rows = np.vstack([folds, np.ones((1, len(batch.ids)), dtype=bool)])
    stacked = fit_params(fit_cfg, batch, default_params(cfg), train_rows=rows)
    assert len(stacked) == len(folds) + 1
    for trains, result in zip(folds, stacked):
        train = {d for d, t in zip(batch.ids, trains) if t}
        alone = fit_params(fit_cfg, fixture_number_tasks(cfg, train), default_params(cfg))
        _, _, alone_holdout = loss_and_grad(
            pack_params(alone.params),
            fixture_number_tasks(cfg, set(batch.ids) - train),
            len(alone.params.theta),
            want_grad=False,
        )
        assert [d for d, _, _ in result.holdout_predictions] == [
            d for d, _, _ in alone_holdout
        ]
        gaps = [
            abs(a[1] - b[1])
            for a, b in zip(result.holdout_predictions, alone_holdout)
        ]
        assert max(gaps) <= 1e-10
        np.testing.assert_allclose(result.loss_trace, alone.loss_trace, rtol=1e-10)
    # the final fit counts every row and holds none out
    final = fit_params(fit_cfg, batch, default_params(cfg))
    assert stacked[-1].holdout_predictions == []
    np.testing.assert_allclose(stacked[-1].loss_trace, final.loss_trace, rtol=1e-10)


def test_unparsed_task_stacked_among_others_predicts_platt_of_half():
    cfg = ExperimentConfig(domain="number", prior="tuned", feature_dim=DIM)
    ext = FeatureExtractor(dim=DIM)
    dead = build_number_task(
        cfg,
        [make_hypothesis("nonsense", "???", "number")],
        NumberExampleSet([5]),
        [(10, 0.5, "dead10"), (3, 0.2, "dead3")],
        ext,
    )
    others = [number_task(cfg, ext), number_task(cfg, ext, [(64, 0.9, "t64")])]
    rng = np.random.default_rng(5)
    for _ in range(3):
        u = random_u(rng)
        _, _, with_dead = loss_and_grad(u, [others[0], dead, others[1]], DIM, want_grad=False)
        _, _, without = loss_and_grad(u, others, DIM, want_grad=False)
        preds = dict((d, p) for d, p, _ in with_dead)
        assert preds["dead10"] == preds["dead3"] == float(expit(u[DIM + 5]))
        for datum_id, pred, _ in without:
            assert preds[datum_id] == pytest.approx(pred, abs=1e-15)


def test_cv_records_keep_fold_then_set_then_row_order():
    cfg = ExperimentConfig.from_json(FIXTURES / "configs" / "number_uniform.json")
    cfg.data_path = str(FIXTURES / "number_judgments.csv")
    cfg.pools = {k: str(FIXTURES / "number" / f"{k}.jsonl") for k in cfg.pools}
    cfg.fit = FitConfig(epochs=2, trainable=cfg.fit.trainable)
    records = run_experiment(cfg).records
    ids = stack_tasks(fixture_number_tasks(cfg)).ids
    expected = [
        ids[n]
        for trains in kfold_rows(len(ids), cfg.k_folds, cfg.seed)
        for n in np.flatnonzero(~trains)
    ]
    assert [r.datum_id for r in records] == expected


def test_non_finite_fold_is_named_with_its_epoch():
    task = number_task()
    task.targets[1] = np.nan  # only folds that train on row 1 diverge
    init = ModelParams(theta=np.zeros(DIM), epsilon=0.5, alpha=0.5, beta=1.0)
    rows = [[True, False, True], [True, True, False], [False, True, True]]
    with pytest.raises(NonFinite) as caught:
        fit_params(FitConfig(epochs=5), [task], init, train_rows=rows)
    assert caught.value.folds == [1, 2]
    assert caught.value.epoch == 0
    assert "fold(s) [1, 2] at epoch 0" in str(caught.value)
    # a fold that leaves the row out fits on its own
    (result,) = fit_params(FitConfig(epochs=5), [task], init, train_rows=rows[:1])
    assert [d for d, _, _ in result.holdout_predictions] == ["t10"]

    # a shape trial with a NaN target: only the folds that count it
    shape = shape_task()
    shape.targets[2] = np.nan
    shape_rows = [[True, True, False, True], [True, True, True, False], [False, True, True, True], [True] * 4]
    with pytest.raises(NonFinite) as caught:
        fit_params(FitConfig(epochs=5), [shape], init, train_rows=shape_rows)
    assert (caught.value.folds, caught.value.epoch) == ([1, 2, 3], 0)
    (result,) = fit_params(FitConfig(epochs=5), [shape], init, train_rows=shape_rows[:1])
    assert [d for d, _, _ in result.holdout_predictions] == [shape.ids[2]]
    assert all(math.isfinite(loss) for loss in result.loss_trace)

    # a mixed batch, the number rows first: fold 0 counts the NaN number
    # row, fold 2 the NaN trial, fold 1 neither, and fold 3 both
    mixed_rows = [
        number + trials
        for number, trials in (
            ([True, True, False], [True, True, False, True]),
            ([True, False, True], [True, True, False, False]),
            ([False, False, True], [False, True, True, True]),
            ([True, True, True], [True, True, True, True]),
        )
    ]
    with pytest.raises(NonFinite) as caught:
        fit_params(FitConfig(epochs=5), [task, shape], init, train_rows=mixed_rows)
    assert (caught.value.folds, caught.value.epoch) == ([0, 2, 3], 0)
    (result,) = fit_params(FitConfig(epochs=5), [task, shape], init, train_rows=mixed_rows[1:2])
    assert [d for d, _, _ in result.holdout_predictions] == ["t10", shape.ids[2], shape.ids[3]]
    assert all(math.isfinite(loss) for loss in result.loss_trace)


def synthetic_number_tasks(n_sets, seed, n_hyps=12, n_rows=6):
    """`n_sets` tuned number tasks of random arrays, each of `n_hyps`
    hypotheses, 4 examples and `n_rows` judgments."""
    rng = np.random.default_rng(seed)
    return [
        NumberTask(
            features=rng.normal(size=(n_hyps, DIM)),
            base_logprior=np.zeros(n_hyps),
            parsed=rng.random(n_hyps) < 0.9,
            member=(rng.random((n_hyps, 4)) < 0.5).astype(float),
            inv_size=rng.uniform(0.01, 1.0, n_hyps),
            test_member=(rng.random((n_rows, n_hyps)) < 0.5).astype(float),
            targets=rng.random(n_rows),
            ids=[f"set{i}:{r}" for r in range(n_rows)],
            names=[f"h{h}" for h in range(n_hyps)],
        )
        for i in range(n_sets)
    ]


def test_task_batch_and_epoch_memory_grow_linearly_with_the_sets():
    """Three times the sets, of equal S and R, take at most 3.3 times
    the compiled bytes and the peak memory of one epoch: no array of
    the fit has both a row axis over all sets and a set axis."""

    def sizes(n_sets):
        tasks = synthetic_number_tasks(n_sets, seed=n_sets)
        batch = stack_tasks(tasks)
        compiled = sum(a.nbytes for a in vars(batch).values() if isinstance(a, np.ndarray))
        u = np.tile(pack_params(ModelParams(theta=np.zeros(DIM))), (3, 1))
        tracemalloc.start()
        try:
            loss_and_grad(u, batch, DIM)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return compiled, peak

    (small, small_peak), (large, large_peak) = sizes(100), sizes(300)
    assert large <= 3.3 * small
    assert large_peak <= 3.3 * small_peak


# ---------------------------------------------------------------------------
# The compiled constants of a shape task


def fuzzed_shape_curve(rng, n_batches):
    """A curve of `n_batches` batches of 0 to 4 trials (an empty batch
    included), objects and labels drawn by `rng`."""
    objects = [
        ShapeObject(shape, color, size)
        for shape in ("triangle", "circle", "rectangle")
        for color in ("green", "blue", "yellow")
        for size in (1, 2, 3)
    ]
    batches = []
    for _ in range(n_batches):
        batch = [objects[i] for i in rng.choice(len(objects), size=rng.integers(1, 5))]
        n_trials = int(rng.integers(0, 5))
        tests = [batch[int(rng.integers(len(batch)))] for _ in range(n_trials)]
        batches.append([Trial(batch, test, bool(rng.random() < 0.5)) for test in tests])
    n_trials = sum(len(b) for b in batches)
    return LearningCurve("fuzz", "fuzzed", batches, rng.uniform(0.0, 1.0, n_trials))


def fresh_constants(task, beta):
    """The shape pass's per-curve arrays, derived from the labels, the
    batches and the rows of `count` as each pass derived them before
    they were compiled: (sign, past, D, log lag, the predictions' index
    (batch, trial))."""
    n_batches, n_trials = task.count.shape[0], len(task.labels)
    sign = np.where(task.labels > 0, 1.0, -1.0)
    lag = np.searchsorted(task.batch, np.arange(n_batches))[:, None] - np.arange(n_trials)
    past = lag > 0
    lag = np.where(past, lag, 1)
    decay = np.where(past, oracle.decay_weights(n_trials, beta)[n_trials - lag], 0.0)
    return sign, past, decay, np.log(lag.astype(float)), (task.batch, np.arange(n_trials))


def assert_constants_match_fresh(task):
    n_batches, n_trials = task.count.shape[0], len(task.labels)
    np.testing.assert_array_equal(task.visible, task.count > 0)
    assert task.decay_index.shape == task.in_batch.shape == (n_batches, n_trials)
    for beta in (0.0, 0.37, 1.0, 8.0):
        sign, past, decay, log_lag, now = fresh_constants(task, beta)
        # the zero slot K is read exactly where the trial is not yet past
        np.testing.assert_array_equal(task.decay_index < n_trials, past)
        # the decay is a lookup, bit for bit: the lags raised to -beta as the
        # pass raises them are oracle.decay_weights(K, beta), and decay_index reads
        # them, or slot K, a zero, where the trial is not yet past
        table = np.zeros(n_trials + 1)
        np.power(task.lags, -beta, out=table[:-1])
        np.testing.assert_array_equal(table[:-1], oracle.decay_weights(n_trials, beta))
        np.testing.assert_array_equal(table.take(task.decay_index), decay)
    by_label = np.stack([sign < 0, sign > 0], axis=1).astype(float)
    sums = task.label_sums.reshape(n_batches, n_trials, 4)
    np.testing.assert_array_equal(sums[..., :2], np.broadcast_to(by_label, sums[..., :2].shape))
    np.testing.assert_array_equal(sums[..., 2:], log_lag[:, :, None] * by_label)
    rng = np.random.default_rng(n_trials)
    x = rng.normal(size=(n_batches, n_trials))
    np.testing.assert_array_equal(x.take(task.now), x[now])
    dl = rng.normal(size=n_trials)
    g = np.zeros((n_batches, n_trials))
    g[now] = dl
    np.testing.assert_array_equal(task.in_batch * dl, g)
    # the truth matrix's transpose, C-contiguous, follows a replaced truth matrix
    for compiled in (task, dataclasses.replace(task, consist=1.0 - task.consist)):
        np.testing.assert_array_equal(compiled.consist_t, compiled.consist.T)
        assert compiled.consist_t.flags.c_contiguous


@pytest.mark.parametrize("seed", range(6))
def test_shape_task_constants_match_fresh_derivation(seed):
    """On fuzzed curves of 1 to 15 batches, after `replace` with an extra
    row of counts (as `infer_shape` adds), and on a 1-batch curve,
    the compiled constants equal the arrays each pass derived before."""
    rng = np.random.default_rng(seed)
    cfg = ExperimentConfig(domain="shape", prior="uniform")
    n_batches = [1, 2, 5, 9, 15, 15][seed]
    curve = fuzzed_shape_curve(rng, n_batches)
    task = build_shape_task(cfg, synthetic_shape_pool(), curve, FeatureExtractor(dim=0))
    assert task.count.shape[0] == n_batches
    assert_constants_match_fresh(task)
    wider = dataclasses.replace(task, count=np.vstack([task.count, task.count[-1:]]))
    n_trials = len(task.labels)
    # every trial lies before the added batch
    assert wider.decay_index.shape[0] == n_batches + 1 and (wider.decay_index[-1] < n_trials).all()
    assert_constants_match_fresh(wider)
    if n_batches == 1:  # nothing lies before the only batch: no decay, and log lag 0
        assert (task.decay_index == n_trials).all() and not task.label_sums[:, 2:].any()


def synthetic_shape_task(n_classes, seed, n_batches=5, n_trials=200):
    """A uniform-prior shape task of `n_classes` random classes, one rule
    each, on `n_trials` trials in `n_batches` equal batches."""
    rng = np.random.default_rng(seed)
    consist = (rng.random((n_classes, n_trials)) < 0.5).astype(float)
    labels = (rng.random(n_trials) < 0.5).astype(float)
    visible = np.sort(rng.random((n_batches, n_classes)) < 0.7, axis=0)
    return ShapeTask(
        features=None,
        base_logprior=np.zeros(n_classes),
        consist=consist,
        labels=labels,
        batch=np.repeat(np.arange(n_batches), n_trials // n_batches),
        count=visible.astype(float),
        targets=rng.random(n_trials),
        ids=[f"curve:{k}" for k in range(n_trials)],
        names=[f"rule {g}" for g in range(n_classes)],
        rule_class=np.arange(n_classes),
        first_batch=np.where(visible.any(axis=0), visible.argmax(axis=0), n_batches + 1),
    )


def test_shape_epoch_memory_grows_linearly_with_the_classes():
    """Three times the classes take at most 3.3 times the peak memory of
    one epoch, the compiled constants do not grow with them, and the
    epoch stays below the bytes of one (G, K) array: the pass builds
    only (B, G) and (B, K) arrays, here B = 5 and K = 200."""

    def sizes(n_classes):
        task = synthetic_shape_task(n_classes, seed=n_classes)
        compiled = sum(
            a.nbytes
            for a in (task.positive, task.lags, task.decay_index, task.label_sums, task.now, task.in_batch)
        )
        batch = stack_tasks([task])
        u = pack_params(ModelParams(epsilon=0.2, alpha=0.4, beta=0.8, temperature=0.7))
        tracemalloc.start()
        try:
            loss_and_grad(u, batch, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return compiled, peak, task.consist.nbytes

    (small, small_peak, _), (large, large_peak, large_truth) = sizes(300), sizes(900)
    assert large == small
    assert large_peak <= 3.3 * small_peak
    assert large_peak < large_truth
