"""Independent brute-force reference implementations used as test oracles.

Everything here is written with plain loops and two-pass formulas, on
purpose: these functions must stay independent of the library code paths
they check.
"""

import math

import numpy as np


def softmax_two_pass(logits):
    exps = [math.exp(float(v)) for v in logits]
    total = sum(exps)
    return [e / total for e in exps]


def cross_entropy_two_pass(logits, label):
    return -math.log(softmax_two_pass(logits)[label])


def entropy_brute(p):
    return -sum(float(v) * math.log(float(v)) for v in p if v > 0)


def kl_to_uniform_brute(p):
    return math.log(len(p)) - entropy_brute(p)


def hellinger_sq_brute(p, q):
    return 1.0 - sum(math.sqrt(float(a) * float(b)) for a, b in zip(p, q))


def diversity_brute(maps):
    k = len(maps)
    flat = [np.asarray(m).ravel() for m in maps]
    total = 0.0
    for i in range(k):
        for j in range(k):
            if i != j:
                total += hellinger_sq_brute(flat[i], flat[j])
    return total


def diversity_grad_pairwise(maps, clamp=1e-12):
    """d(diversity)/d(maps) summed pair by pair: for head i and cell t,
    sum over j != i of -sqrt(max(a_jt, clamp) / max(a_it, clamp))."""
    k = len(maps)
    flat = [[max(float(v), clamp) for v in np.asarray(m).ravel()] for m in maps]
    grad = np.zeros((k, len(flat[0])))
    for i in range(k):
        for t in range(len(flat[i])):
            grad[i, t] = sum(-math.sqrt(flat[j][t] / flat[i][t]) for j in range(k) if j != i)
    return grad.reshape(np.shape(maps))


def attention_maps_straightline(w1, b1, w2, fmap):
    """Per-cell loops through the two-layer stack and a per-head softmax."""
    h, w, c = fmap.shape
    ch = w1.shape[1]
    k = w2.shape[1]
    logits = np.zeros((k, h, w))
    for y in range(h):
        for x in range(w):
            hidden = [max(0.0, sum(fmap[y, x, i] * w1[i, j] for i in range(c)) + b1[j])
                      for j in range(ch)]
            for head in range(k):
                logits[head, y, x] = sum(hidden[j] * w2[j, head] for j in range(ch))
    maps = np.zeros_like(logits)
    for head in range(k):
        weights = softmax_two_pass(logits[head].ravel())
        maps[head] = np.asarray(weights).reshape(h, w)
    return maps


def attentive_features_brute(fmap, maps):
    k = maps.shape[0]
    h, w, c = fmap.shape
    out = np.zeros((k, c))
    for head in range(k):
        for y in range(h):
            for x in range(w):
                for ch in range(c):
                    out[head, ch] += maps[head, y, x] * fmap[y, x, ch]
    return out


def ensemble_logits_brute(weights, biases, feats, table_vectors):
    k, v, s = weights.shape
    d = table_vectors.shape[0]
    logits = np.zeros(d)
    for cls in range(d):
        acc = 0.0
        for head in range(k):
            projected = [sum(feats[head, i] * weights[head, i, j] for i in range(v)) + biases[head, j]
                         for j in range(s)]
            acc += sum(projected[j] * table_vectors[cls, j] for j in range(s))
        logits[cls] = acc / k
    return logits


def confidence_brute(probs):
    return max(float(v) for v in probs) - entropy_brute(probs)


def disagreement_brute(scores):
    ordered = sorted((float(v) for v in scores), reverse=True)
    top = ordered[:-1]
    return sum(top) / len(top) - ordered[-1]


def calibrate_theta_brute(degrees, target_fnr):
    ordered = sorted(float(v) for v in degrees)
    k = math.floor(len(ordered) * target_fnr)
    return ordered[min(k, len(ordered) - 1)]


def per_class_top1_brute(preds, labels, classes):
    per_class = []
    for cls in classes:
        hits = [p == cls for p, lab in zip(preds, labels) if lab == cls]
        if hits:
            per_class.append(sum(hits) / len(hits))
    return sum(per_class) / len(per_class)


def tnr_at_fnr_brute(seen_degrees, unseen_degrees, fnr_grid):
    out = []
    for fnr in fnr_grid:
        theta = calibrate_theta_brute(seen_degrees, fnr)
        flagged = sum(1 for d in unseen_degrees if d < theta)
        out.append((fnr, flagged / len(unseen_degrees)))
    return out


def ridge_prototype_acc(bundle):
    """Nearest-semantic-prototype baseline on mean-pooled features.

    Least-squares map from spatially mean-pooled training features to their
    class semantic vectors, then nearest (max dot) unseen-class row.
    Independent of the attention model entirely.
    """
    tr = bundle.train_indices()
    x = np.stack([bundle.features[i].mean(axis=(0, 1)) for i in tr])
    id_to_row = {int(c): r for r, c in enumerate(bundle.table.class_ids)}
    y = np.stack([bundle.table.vectors[id_to_row[int(bundle.labels[i])]] for i in tr])
    w = np.linalg.lstsq(x, y, rcond=None)[0]

    unseen = set(bundle.unseen_ids.tolist())
    idx = [i for i in bundle.test_indices() if int(bundle.labels[i]) in unseen]
    ut = bundle.unseen_table()
    preds = []
    for i in idx:
        feat = bundle.features[i].mean(axis=(0, 1))
        scores = (feat @ w) @ ut.vectors.T
        preds.append(int(ut.class_ids[int(np.argmax(scores))]))
    return per_class_top1_brute(preds, [int(bundle.labels[i]) for i in idx],
                                ut.class_ids.tolist()), idx


def total_loss_per_sample(model, fmap, label, table, div_scale):
    """One sample's ``L_cls + div_scale * L_div`` and its
    gradient dict, written out per sample with plain numpy.

    The batched ``model.total_loss`` must equal the mean of this over a
    batch, for the loss and for every gradient.
    """
    h, w, c = fmap.shape
    k = model.head_count
    x = fmap.reshape(h * w, c)
    label_idx = int(np.nonzero(table.class_ids == label)[0][0])

    # forward
    z1 = x @ model.w1 + model.b1
    r = np.maximum(z1, 0.0)
    z2 = (r @ model.w2).T                                  # (K, cells)
    e = np.exp(z2 - z2.max(axis=1, keepdims=True))
    maps = e / e.sum(axis=1, keepdims=True)
    feats = maps @ x                                     # (K, C)
    projected = np.stack([feats[i] @ model.proj_w[i] + model.proj_b[i] for i in range(k)])
    scores = table.vectors @ projected.mean(axis=0)
    shifted = scores - scores.max()
    log_probs = shifted - math.log(np.exp(shifted).sum())
    l_cls = -log_probs[label_idx]
    roots = np.sqrt(np.maximum(maps, 0.0))
    l_div = sum(1.0 - roots[i] @ roots[j] for i in range(k) for j in range(k) if i != j)
    total = l_cls + div_scale * l_div

    # backward: classification path
    d_scores = np.exp(log_probs)
    d_scores[label_idx] -= 1.0
    d_projected = (table.vectors.T @ d_scores) / k       # same for every head
    grads = {"proj.w": np.stack([np.outer(feats[i], d_projected) for i in range(k)]),
             "proj.b": np.stack([d_projected] * k)}
    d_maps = np.zeros_like(maps)
    for i in range(k):
        d_maps[i] = (model.proj_w[i] @ d_projected) @ x.T

    # backward: diversity path, sqrt arguments clamped at 1e-12
    clamped = np.sqrt(np.maximum(maps, 1e-12))
    for i in range(k):
        other = sum(clamped[j] for j in range(k) if j != i)
        d_maps[i] += div_scale * (-other / clamped[i])

    # through the per-head softmax and the conv stack
    d_z2 = np.stack([maps[i] * (d_maps[i] - maps[i] @ d_maps[i]) for i in range(k)]).T
    d_z1 = (d_z2 @ model.w2.T) * (z1 > 0)
    grads["attn.w1"] = x.T @ d_z1
    grads["attn.b1"] = d_z1.sum(axis=0)
    grads["attn.w2"] = r.T @ d_z2
    return float(total), grads


def init_fold_per_fold(ids, in_dim, hidden, rng):
    """One sub-detector as a dict of its sorted class ids ("ids") and its
    w1, b1, w2 and b2, drawn in that order from uniform(-1/sqrt(fan_in),
    ...), unpadded."""
    ids = np.sort(np.asarray(list(ids), dtype=np.int64))
    fold = {"ids": ids}
    for name, fan_in, shape in (("w1", in_dim, (in_dim, hidden)), ("b1", in_dim, (hidden,)),
                                ("w2", hidden, (hidden, ids.size)), ("b2", hidden, (ids.size,))):
        bound = 1.0 / np.sqrt(fan_in)
        fold[name] = rng.uniform(-bound, bound, size=shape)
    return fold


def subddm_loss_per_fold(fold, id_feats, id_labels, ood_feats):
    """One sub-detector's mean cross-entropy on its ID batch (class ids) plus
    mean KL-to-uniform on its virtual OOD batch, and the gradient dict,
    written per fold with plain numpy. ``fold`` is a dict of the fold's
    class ids ("ids") and its unpadded w1, b1, w2 and b2. An empty or None
    batch drops its term.

    The fold-stacked ``ood.subddm_loss`` must equal this fold by fold.
    """
    w1, b1, w2, b2 = fold["w1"], fold["b1"], fold["w2"], fold["b2"]
    grads = {"w1": np.zeros_like(w1), "b1": np.zeros_like(b1),
             "w2": np.zeros_like(w2), "b2": np.zeros_like(b2)}
    total = 0.0
    c = b2.shape[0]
    for feats, labels in ((id_feats, id_labels), (ood_feats, None)):
        if feats is None or len(feats) == 0:
            continue
        x = np.asarray(feats, dtype=np.float64)
        n = x.shape[0]
        z1 = x @ w1 + b1
        r = np.maximum(z1, 0.0)
        z2 = r @ w2 + b2
        shifted = z2 - z2.max(axis=1, keepdims=True)
        log_p = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        p = np.exp(log_p)
        if labels is not None:
            rows = [int(np.nonzero(fold["ids"] == y)[0][0]) for y in np.ravel(labels)]
            total += -sum(log_p[k, j] for k, j in enumerate(rows)) / n
            d_z2 = p.copy()
            for k, j in enumerate(rows):
                d_z2[k, j] -= 1.0
        else:
            g = log_p + math.log(c)
            total += float((p * g).sum()) / n
            d_z2 = p * (g - (p * g).sum(axis=1, keepdims=True))
        d_z2 /= n
        d_z1 = (d_z2 @ w2.T) * (z1 > 0)
        grads["w2"] += r.T @ d_z2
        grads["b2"] += d_z2.sum(axis=0)
        grads["w1"] += x.T @ d_z1
        grads["b1"] += d_z1.sum(axis=0)
    return float(total), grads


def train_ddm_per_fold(bundle, cfg):
    """The detector ensemble trained one fold after another, one
    ``subddm_loss_per_fold`` step at a time: each fold's init draws and
    shuffler stream, ``np.array_split`` chunks of its shuffled ID and OOD
    rows, and plain SGD. Returns the sub-detectors as ``init_fold_per_fold``
    dicts and the epoch losses (the mean over folds of each fold's mean step
    loss).
    """
    from setnet.ood import partition_classes
    from setnet.train import holdout_indices, pooled_features

    seen = bundle.seen_ids.tolist()
    folds = partition_classes(seen, cfg.fold_count, cfg.seed)
    held = set(holdout_indices(bundle, cfg.seed).tolist())
    train_idx = np.array([i for i in bundle.train_indices() if i not in held], dtype=np.int64)
    feats = pooled_features(bundle, train_idx)
    labels = bundle.labels[train_idx]
    subs = []
    epoch_losses = np.zeros(cfg.epochs)
    for i in range(cfg.fold_count):
        is_ood = np.isin(labels, folds[i])
        id_rows, ood_rows = np.nonzero(~is_ood)[0], np.nonzero(is_ood)[0]
        sub = init_fold_per_fold(sorted(set(seen) - set(folds[i])), feats.shape[1], cfg.ddm_hidden,
                                 np.random.default_rng([cfg.seed, 0xDD, i]))
        shuffler = np.random.default_rng([cfg.seed, 0xDE, i])
        for epoch in range(cfg.epochs):
            id_order = id_rows[shuffler.permutation(id_rows.size)]
            ood_order = ood_rows[shuffler.permutation(ood_rows.size)]
            n_steps = max(1, -(-id_order.size // cfg.batch_size))
            for id_chunk, ood_chunk in zip(np.array_split(id_order, n_steps),
                                           np.array_split(ood_order, n_steps)):
                loss, grads = subddm_loss_per_fold(sub, feats[id_chunk], labels[id_chunk],
                                                   feats[ood_chunk])
                epoch_losses[epoch] += loss / cfg.fold_count / n_steps
                for name, g in grads.items():
                    sub[name] -= cfg.learning_rate * g
        subs.append(sub)
    return subs, epoch_losses.tolist()
