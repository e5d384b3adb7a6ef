import numpy as np
import pytest

from setnet import diffmath as dm
from setnet.model import (SemanticTable, SetNetModel, _pool, attention_maps, class_scores,
                          diversity_loss, ensemble_logits, export_attention, init_setnet, predict,
                          total_loss)
from setnet.train import TrainConfig

from conftest import (DIV_SCALE, bundle_of, random_model, random_table, safe_instance,
                      set_chunk_rows)
from oracles import (attention_maps_straightline, attentive_features_brute,
                     diversity_brute, diversity_grad_pairwise, ensemble_logits_brute)


def identity_model(v):
    """K=1 model whose projector is the identity (V = S), zero biases."""
    return SetNetModel(w1=np.zeros((v, 2)), b1=np.zeros(2), w2=np.zeros((2, 1)),
                       proj_w=np.eye(v)[None], proj_b=np.zeros((1, v)))


def pooled(model, fmap):
    """The attention-pooled (K, C) features ``_pool`` gives one (H, W, C) map."""
    return _pool(model, fmap[None])[4][0]


def load_attention(path):
    """Parse a CSV written by export_attention back into a (K, H, W) array."""
    blocks = [[[float(v) for v in row.split(",")] for row in block.splitlines()]
              for block in path.read_text().split("\n\n")]
    return np.asarray(blocks, dtype=np.float64)


# ---------------------------------------------------------------------------
# attention maps

def test_attention_maps_uniform_for_zero_input():
    rng = np.random.default_rng(0)
    model = random_model(rng, c=8, ch=6, k=3)
    model.b1[:] = 0
    maps = attention_maps(model, np.zeros((1, 4, 4, 8)))
    np.testing.assert_allclose(maps, 1 / 16, atol=1e-15)


@pytest.mark.parametrize("seed", range(10))
def test_attention_maps_normalized(seed):
    rng = np.random.default_rng(seed)
    model = random_model(rng, c=8, ch=6, k=4)
    maps = attention_maps(model, rng.normal(scale=3, size=(1, 5, 3, 8)))[0]
    assert (maps >= 0).all()
    np.testing.assert_allclose(maps.reshape(4, -1).sum(axis=1), 1.0, atol=1e-9)


@pytest.mark.parametrize("seed", range(5))
def test_attention_maps_match_straightline_oracle(seed):
    rng = np.random.default_rng(seed)
    model = random_model(rng, c=8, ch=6, k=3)
    fmap = rng.normal(size=(4, 4, 8))
    got = attention_maps(model, fmap[None])[0]
    want = attention_maps_straightline(model.w1, model.b1, model.w2, fmap)
    assert np.abs(got - want).max() < 1e-12


def test_attention_maps_batch_matches_single_maps():
    rng = np.random.default_rng(12)
    model = random_model(rng, c=8, ch=5, k=3)
    fmaps = rng.normal(size=(4, 5, 3, 8))
    batch = attention_maps(model, fmaps)
    assert batch.shape == (4, 3, 5, 3)
    # one forward runs the same per-map products as B single calls
    np.testing.assert_array_equal(batch, np.stack([attention_maps(model, f[None])[0]
                                                   for f in fmaps]))


def test_attention_maps_channel_mismatch():
    model = random_model(np.random.default_rng(1), c=8)
    with pytest.raises(ValueError):
        attention_maps(model, np.zeros((1, 4, 4, 7)))


# ---------------------------------------------------------------------------
# attentive pooling

def test_attentive_features_uniform_is_spatial_mean():
    rng = np.random.default_rng(2)
    fmap = rng.normal(size=(3, 5, 7))
    model = random_model(rng, c=7, ch=4, k=2)
    model.w2[:] = 0  # every head's logits are constant: uniform maps
    got = pooled(model, fmap)
    np.testing.assert_allclose(got, np.tile(fmap.mean(axis=(0, 1)), (2, 1)), atol=1e-12)


def test_attentive_features_point_mass_selects_cell():
    rng = np.random.default_rng(3)
    fmap = rng.normal(size=(4, 4, 6))
    fmap[2, 1, 0] = 1000.0  # channel 0 drives the one head's logits; exp(-996) is 0
    model = SetNetModel(w1=np.eye(6, 1), b1=np.zeros(1), w2=np.ones((1, 1)),
                        proj_w=np.zeros((1, 6, 2)), proj_b=np.zeros((1, 2)))
    np.testing.assert_allclose(pooled(model, fmap)[0], fmap[2, 1], atol=0)


@pytest.mark.parametrize("seed", range(5))
def test_attentive_features_match_brute_force(seed):
    rng = np.random.default_rng(seed)
    fmap = rng.normal(size=(3, 4, 5))
    model = random_model(rng, c=5, ch=4, k=3)
    got = pooled(model, fmap)
    maps = attention_maps(model, fmap[None])[0]
    assert np.abs(got - attentive_features_brute(fmap, maps)).max() < 1e-12


# ---------------------------------------------------------------------------
# diversity

def test_diversity_zero_for_identical_maps():
    maps = np.tile(np.full((1, 2, 2), 0.25), (4, 1, 1))
    assert diversity_loss(maps[None])[0] == pytest.approx(0.0, abs=1e-12)


def test_diversity_disjoint_pair():
    maps = np.zeros((2, 2, 2))
    maps[0, 0, 0] = 1.0
    maps[1, 1, 1] = 1.0
    assert diversity_loss(maps[None])[0] == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_diversity_matches_brute_force_and_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    maps = dm.softmax(rng.normal(size=(3, 16))).reshape(3, 4, 4)
    got = diversity_loss(maps[None])[0]
    assert got == pytest.approx(diversity_brute(maps), abs=1e-12)
    perm = maps[rng.permutation(3)]
    assert diversity_loss(perm[None])[0] == pytest.approx(got, abs=1e-12)
    assert 0 <= got <= 3 * 2


@pytest.mark.parametrize("seed", range(5))
def test_diversity_grad_clamps_both_roots(seed):
    # logits x60 make maps with many cells far below the clamp; there the
    # closed form 1 - sum_j q_j / q_i must use the clamped q in the sum too
    rng = np.random.default_rng(seed)
    maps = dm.softmax(60 * rng.normal(size=(2, 4, 16))).reshape(2, 4, 4, 4)
    assert (maps < 1e-30).mean() > 0.3
    values, grad = diversity_loss(maps, grad=True)
    np.testing.assert_array_equal(values, [diversity_loss(m[None])[0] for m in maps])
    for got, m in zip(grad, maps):
        want = diversity_grad_pairwise(m)
        assert (np.abs(got - want) / np.maximum(np.abs(want), 1.0)).max() <= 1e-12


def test_diversity_rejects_empty():
    with pytest.raises(ValueError):
        diversity_loss(np.zeros((1, 0, 2, 2)))


# ---------------------------------------------------------------------------
# ensemble logits

def test_ensemble_logits_identity_projection():
    model = identity_model(4)
    feats = np.array([[0.3, -0.7, 2.0, 0.1]])
    table = SemanticTable(class_ids=np.arange(4), vectors=np.eye(4))
    np.testing.assert_allclose(ensemble_logits(model, feats[None], table)[0], feats[0], atol=1e-15)


@pytest.mark.parametrize("seed", range(5))
def test_ensemble_logits_match_loop_oracle(seed):
    rng = np.random.default_rng(seed)
    model = random_model(rng, c=6, ch=4, k=2, s=5)
    feats = rng.normal(size=(2, 6))
    table = random_table(rng, 4, 5)
    got = ensemble_logits(model, feats[None], table)[0]
    want = ensemble_logits_brute(model.proj_w, model.proj_b, feats, table.vectors)
    assert np.abs(got - want).max() < 1e-12


def test_ensemble_logits_mean_vs_sum_argmax():
    rng = np.random.default_rng(9)
    model = random_model(rng, c=6, ch=4, k=3, s=5)
    table = random_table(rng, 7, 5)
    fmap = rng.normal(size=(3, 3, 6))
    feats = pooled(model, fmap)
    mean_logits = ensemble_logits(model, feats[None], table)[0]
    sum_scores = class_scores(model, fmap[None], table)[0]
    assert int(np.argmax(mean_logits)) == int(np.argmax(sum_scores))


@pytest.mark.parametrize("seed", range(5))
def test_ensemble_logits_linear_in_each_head(seed):
    # affine in m_k with fixed parameters: increments superpose
    rng = np.random.default_rng(seed)
    model = random_model(rng, c=6, ch=4, k=3, s=5)
    table = random_table(rng, 4, 5)
    feats = rng.normal(size=(3, 6))
    base = ensemble_logits(model, feats[None], table)
    for head in range(3):
        d1, d2 = rng.normal(size=6), rng.normal(size=6)
        bumped = [feats[None].copy() for _ in range(3)]
        bumped[0][0, head] += d1
        bumped[1][0, head] += d2
        bumped[2][0, head] += d1 + d2
        inc1 = ensemble_logits(model, bumped[0], table) - base
        inc2 = ensemble_logits(model, bumped[1], table) - base
        both = ensemble_logits(model, bumped[2], table) - base
        np.testing.assert_allclose(both, inc1 + inc2, atol=1e-12)


def test_ensemble_logits_dim_mismatch():
    rng = np.random.default_rng(4)
    model = random_model(rng, c=6, s=5)
    table = random_table(rng, 4, 6)  # wrong semantic dim
    with pytest.raises(ValueError):
        ensemble_logits(model, rng.normal(size=(1, 3, 6)), table)
    with pytest.raises(ValueError):
        ensemble_logits(model, rng.normal(size=(1, 3, 7)), random_table(rng, 4, 5))


# ---------------------------------------------------------------------------
# total loss

def test_total_loss_reduces_to_cls_when_weight_zero():
    model, fmap, table, label = safe_instance(0)
    total, _ = total_loss(model, fmap[None], [label], table, 0.0)
    feats = pooled(model, fmap)
    expected = dm.cross_entropy_from_logits(ensemble_logits(model, feats[None], table),
                                            table.indices_of([label]))[0]
    assert total == pytest.approx(expected, abs=1e-12)


def test_total_loss_identical_maps_zero_diversity():
    rng = np.random.default_rng(6)
    model = random_model(rng, c=8, ch=6, k=3, s=5)
    # identical columns make every head produce the same logits
    model.w2[:] = model.w2[:, :1]
    table = random_table(rng, 5, 5)
    fmap = rng.normal(size=(4, 4, 8))
    with_reg, _ = total_loss(model, fmap[None], [2], table, -0.7)
    without_reg, _ = total_loss(model, fmap[None], [2], table, 0.0)
    assert with_reg == pytest.approx(without_reg, abs=1e-10)


@pytest.mark.parametrize("seed", range(20))
def test_total_loss_grad_check(seed):
    model, fmap, table, label = safe_instance(seed)
    params = model.parameters()

    def loss_fn(_):
        return total_loss(model, fmap[None], [label], table, DIV_SCALE)

    assert dm.grad_check(loss_fn, params, eps=1e-4) <= 1e-4


def test_total_loss_decreasing_in_weight():
    model, fmap, table, label = safe_instance(1)
    totals = []
    for lam in (0.0, 0.1, 0.3, 1.0):
        totals.append(total_loss(model, fmap[None], [label], table, -1 * lam)[0])
    assert all(a >= b - 1e-12 for a, b in zip(totals, totals[1:]))


def test_total_loss_label_missing():
    model, fmap, table, _ = safe_instance(2)
    with pytest.raises(IndexError):
        total_loss(model, fmap[None], [999], table, DIV_SCALE)


def test_total_loss_rejects_bad_inputs():
    # the trainer checks labels once per run; a direct call checks every
    # batch, and the config checks the diversity sign
    model, fmap, table, label = safe_instance(2)
    with pytest.raises(ValueError, match="diversity_sign"):
        TrainConfig(diversity_sign=0)
    with pytest.raises(ValueError, match="empty batch"):
        total_loss(model, fmap[None][:0], [], table, DIV_SCALE)
    with pytest.raises(ValueError, match="labels"):
        total_loss(model, np.stack([fmap, fmap]), [label], table, DIV_SCALE)
    with pytest.raises(IndexError):
        total_loss(model, np.stack([fmap, fmap]), [label, -1], table, DIV_SCALE)


def test_total_loss_positive_sign_penalizes_diversity():
    model, fmap, table, label = safe_instance(3)
    neg, _ = total_loss(model, fmap[None], [label], table, -1 * 0.2)
    pos, _ = total_loss(model, fmap[None], [label], table, +1 * 0.2)
    base, _ = total_loss(model, fmap[None], [label], table, 0.0)
    assert neg <= base + 1e-12 <= pos + 2e-12


# ---------------------------------------------------------------------------
# prediction

def test_predict_single_class_table():
    rng = np.random.default_rng(7)
    model = random_model(rng, c=6, s=5)
    table = random_table(rng, 1, 5)
    assert predict(model, rng.normal(size=(1, 3, 3, 6)), table).tolist() == [0]


def test_predict_matching_row_wins():
    model = identity_model(4)
    fmap = np.zeros((2, 2, 4))
    fmap[:, :, 1] = 1.0  # pooled feature = e_1 regardless of attention
    table = SemanticTable(class_ids=np.array([10, 20, 30, 40]), vectors=np.eye(4))
    assert predict(model, fmap[None], table).tolist() == [20]


def test_predict_tie_breaks_to_smallest_id():
    model = identity_model(4)
    for name, p in model.parameters().items():
        p[:] = 0  # all scores identical
    table = SemanticTable(class_ids=np.array([7, 3, 9]),
                          vectors=np.eye(4)[:3])
    assert predict(model, np.zeros((1, 2, 2, 4)), table).tolist() == [3]


@pytest.mark.parametrize("seed", range(5))
def test_predict_matches_exhaustive_loop(seed):
    rng = np.random.default_rng(seed)
    model = random_model(rng, c=6, ch=4, k=2, s=5)
    table = random_table(rng, 8, 5)
    fmap = rng.normal(size=(1, 3, 4, 6))
    scores = class_scores(model, fmap, table)[0]
    best = max(range(8), key=lambda d: (scores[d], -int(table.class_ids[d])))
    assert predict(model, fmap, table).tolist() == [int(table.class_ids[best])]


@pytest.mark.parametrize("batch", [257, 513])  # past one and two chunks of 256 rows
def test_chunked_predict_matches_rows_and_one_forward(batch, monkeypatch):
    rng = np.random.default_rng([batch, 0xC4C])
    model = random_model(rng, c=6, ch=4, k=3, s=5)
    table = random_table(rng, 8, 5)
    fmaps = rng.normal(size=(batch, 3, 4, 6)).astype(np.float32)  # as a bundle holds them
    bundle, rows = bundle_of(fmaps), np.arange(batch)
    set_chunk_rows(monkeypatch, 256, fmaps.shape[1:])

    def scores_of():
        return bundle.map_rows(rows, lambda maps: class_scores(model, maps, table))

    preds, scores = bundle.map_rows(rows, lambda maps: predict(model, maps, table)), scores_of()
    assert preds.tolist() == [predict(model, fmap[None], table)[0] for fmap in fmaps]
    set_chunk_rows(monkeypatch, batch, fmaps.shape[1:])  # the whole batch in one forward
    assert np.array_equal(scores_of(), scores)
    assert np.array_equal(class_scores(model, fmaps.astype(np.float64), table), scores)


def test_chunks_are_even_and_cover_every_row(monkeypatch):
    set_chunk_rows(monkeypatch, 4, (1, 1, 1))
    bundle = bundle_of(np.arange(30, dtype=np.float32).reshape(30, 1, 1, 1))
    for n in range(0, 30):
        rows = np.random.default_rng(n).permutation(30)[:n]
        assert np.array_equal(bundle.map_rows(rows, lambda maps: maps), bundle.features[rows])
        sizes = bundle.map_rows(rows, lambda maps: [len(maps)]).tolist()
        assert sum(sizes) == n and max(sizes) <= 4 and max(sizes) - min(sizes) <= 1
        assert len(sizes) == max(1, -(-n // 4))
        assert min(sizes) >= 2 or n < 2  # no lone row in a batch


@pytest.mark.parametrize("shape, rows", [((4, 4, 32), 256), ((7, 7, 256), 10),
                                         ((1, 1, 1 << 17), 3)], ids=["desk", "wide", "huge"])
def test_chunks_hold_one_mib_of_float64_maps(shape, rows):
    """A chunk's row count comes from a byte budget and the map shape: 256
    rows of the desk and infer 4x4x32 maps, at most 10 of 7x7x256 maps, and 3
    of a map as large as the whole budget, so that even slices leave no lone
    row."""
    bundle = bundle_of(np.zeros((2 * rows + 1, *shape), dtype=np.float32))
    all_rows = np.arange(bundle.sample_count)

    def sizes(n):
        return bundle.map_rows(all_rows[:n], lambda maps: [len(maps)]).tolist()

    assert sizes(rows) == [rows] and sizes(2 * rows) == [rows, rows]
    assert len(sizes(2 * rows + 1)) == 3 and max(sizes(2 * rows + 1)) <= rows
    assert all(min(sizes(n)) >= 2 for n in range(2, 2 * rows + 2))


@pytest.mark.parametrize("batch", [1, 7, 64])
def test_batched_predict_matches_per_sample(batch):
    rng = np.random.default_rng([batch, 0xBA7])
    model = random_model(rng, c=6, ch=4, k=3, s=5)
    table = random_table(rng, 8, 5)
    fmaps = rng.normal(size=(batch, 3, 4, 6))
    scores = class_scores(model, fmaps, table)
    assert scores.shape == (batch, 8)
    for i in range(batch):
        np.testing.assert_allclose(scores[i], class_scores(model, fmaps[i:i + 1], table)[0],
                                   rtol=0, atol=1e-12)
    preds = predict(model, fmaps, table)
    assert preds.shape == (batch,)
    assert preds.tolist() == [predict(model, fmap[None], table)[0] for fmap in fmaps]


def test_batched_predict_ties_break_to_smallest_id_per_row():
    model = identity_model(4)
    table = SemanticTable(class_ids=np.array([30, 10, 40, 20]), vectors=np.eye(4))
    fmaps = np.zeros((4, 2, 2, 4))   # row 0: all four classes tie
    fmaps[1, :, :, 2] = 1.0          # row 1: class 40 alone
    fmaps[2, :, :, [0, 2]] = 1.0     # row 2: 30 ties 40
    fmaps[3, :, :, [0, 3]] = 1.0     # row 3: 30 ties 20
    preds = predict(model, fmaps, table)
    assert preds.tolist() == [10, 40, 30, 20]
    assert preds.tolist() == [predict(model, fmap[None], table)[0] for fmap in fmaps]


def test_predict_empty_table():
    model = identity_model(4)
    table = SemanticTable(class_ids=np.empty(0, dtype=np.int64), vectors=np.empty((0, 4)))
    with pytest.raises(ValueError):
        predict(model, np.zeros((1, 2, 2, 4)), table)


# ---------------------------------------------------------------------------
# attention export

def test_export_uniform_map(tmp_path):
    path = tmp_path / "attn.csv"
    export_attention(np.full((1, 2, 2), 0.25), path)
    text = path.read_text()
    assert text == "0.25,0.25\n0.25,0.25\n"


def test_export_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    maps = dm.softmax(rng.normal(size=(3, 20))).reshape(3, 4, 5)
    path = tmp_path / "attn.csv"
    export_attention(maps, path)
    back = load_attention(path)
    assert back.shape == (3, 4, 5)
    assert np.abs(back - maps).max() < 1e-12


def test_export_unwritable_path(tmp_path):
    with pytest.raises(OSError):
        export_attention(np.full((1, 2, 2), 0.25), tmp_path)  # a directory


def test_export_block_structure(tmp_path):
    path = tmp_path / "attn.csv"
    export_attention(np.full((3, 2, 4), 0.125), path)
    blocks = path.read_text().split("\n\n")
    assert len(blocks) == 3
    for block in blocks:
        rows = [r for r in block.strip().split("\n")]
        assert len(rows) == 2
        assert all(len(r.split(",")) == 4 for r in rows)


# ---------------------------------------------------------------------------
# types

def test_semantic_table_validation():
    with pytest.raises(ValueError):
        SemanticTable(class_ids=np.array([1, 1]), vectors=np.eye(2))
    with pytest.raises(ValueError):
        SemanticTable(class_ids=np.array([0, 1]), vectors=np.eye(2) * 2)


def test_semantic_table_subset_sorted():
    table = SemanticTable(class_ids=np.array([5, 2, 9]), vectors=np.eye(3))
    sub = table.subset([9, 2])
    assert sub.class_ids.tolist() == [2, 9]
    np.testing.assert_array_equal(sub.vectors[0], table.vectors[1])
    with pytest.raises(IndexError):
        table.subset([4])


def test_model_head_count_mismatch():
    rng = np.random.default_rng(10)
    m = random_model(rng, c=6, k=2)
    with pytest.raises(ValueError):
        SetNetModel(w1=m.w1, b1=m.b1, w2=m.w2, proj_w=np.zeros((3, 6, 5)), proj_b=np.zeros((3, 5)))


def test_init_setnet_seeded_determinism():
    a = init_setnet(8, 6, 3, 5, np.random.default_rng(42))
    b = init_setnet(8, 6, 3, 5, np.random.default_rng(42))
    for (na, pa), (nb, pb) in zip(sorted(a.parameters().items()),
                                  sorted(b.parameters().items())):
        assert na == nb
        np.testing.assert_array_equal(pa, pb)
