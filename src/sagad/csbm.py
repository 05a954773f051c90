"""Degree-corrected contextual stochastic block models with mixed
connectivity regimes, and the linear-separability laboratory.

Each node carries a class (anomaly/normal), a connectivity regime
(homophilic/heterophilic), and a degree parameter.  Two realizations are
produced:

* an undirected simple graph where the edge probability averages the two
  endpoint regimes (the public dataset artifact), and
* a directed "ego" adjacency where row i is drawn purely from node i's
  own regime matrix.  Per-row neighborhoods of the ego draw match the
  closed-form expected degree exactly, which is what the separability
  analysis assumes; the averaged undirected law mixes partner regimes
  into every neighborhood and provably destroys the class ordering under
  strong prior imbalance, so the experiment filters on the ego view.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .graph import GraphDataset, SparseAdjacency, SplitSet

_SEED_DOMAIN_CSBM = 0xC5B


@dataclass
class CsbmParams:
    """Generative spec: class sizes, Gaussian means, regime matrices, degrees."""

    n_a: int
    n_n: int
    mu: np.ndarray
    nu: np.ndarray
    p1: float
    q1: float
    p2: float
    q2: float
    regime_frac: float = 0.5  # share of nodes in the heterophilic regime
    theta_min: float = 1.0
    theta_max: float = 1.0
    seed: int = 0

    @property
    def n(self) -> int:
        return self.n_a + self.n_n

    @property
    def dim(self) -> int:
        return len(self.mu)

    @property
    def pi_a(self) -> float:
        return self.n_a / self.n

    def validate(self, prefix: str = "") -> None:
        """Raise a ConfigError naming the first field out of range, with its
        value; ``prefix`` (a config section such as ``"csbm."``) goes before
        each field name."""
        if self.n_a < 1 or self.n_n < 1:
            raise ConfigError(f"both classes need at least one node: {prefix}n_a and "
                              f"{prefix}n_n must be >= 1, got {self.n_a} and {self.n_n}")
        mu = np.asarray(self.mu, dtype=np.float64)
        nu = np.asarray(self.nu, dtype=np.float64)
        if mu.shape != nu.shape or mu.ndim != 1:
            raise ConfigError("mu and nu must be 1-d vectors of equal length")
        if np.linalg.norm(mu) > 1.0 + 1e-12 or np.linalg.norm(nu) > 1.0 + 1e-12:
            raise ConfigError("mean vectors must have norm <= 1")
        for value, name in (
            (self.p1, "p1"), (self.q1, "q1"), (self.p2, "p2"), (self.q2, "q2"),
            (self.regime_frac, "regime_frac"),
        ):
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{prefix}{name} must lie in [0, 1], got {value}")
        if not self.p1 > self.q1:
            raise ConfigError(f"homophilic regime requires {prefix}p1 > {prefix}q1, "
                              f"got {self.p1} and {self.q1}")
        if not self.p2 < self.q2:
            raise ConfigError(f"heterophilic regime requires {prefix}p2 < {prefix}q2, "
                              f"got {self.p2} and {self.q2}")
        if not 0.0 < self.theta_min <= self.theta_max:
            raise ConfigError(f"need 0 < {prefix}theta_min <= {prefix}theta_max, "
                              f"got {self.theta_min} and {self.theta_max}")


@dataclass
class CsbmSample:
    dataset: GraphDataset
    regimes: np.ndarray  # 0 = homophilic, 1 = heterophilic
    theta: np.ndarray
    ego: "scipy.sparse.csr_matrix | None"  # row i: node i's out-neighborhood
    clipped_pairs: int


@dataclass
class SeparatorSpec:
    """Prior-aware linear separator; anomaly when <x, w_star> + b_star < 0."""

    w_star: np.ndarray
    b_star: float
    R: float
    tau_pi: float


@dataclass
class SeparabilityResult:
    accuracy: float
    acc_anomaly: float
    acc_normal: float
    accuracy_misfiltered: float
    mean_margin: float
    mean_margin_misfiltered: float
    kappa_eff: float
    margin_value: float
    separator: SeparatorSpec | None


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


_BLOCK = 512


def _node_rate_tables(params: CsbmParams, regimes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-node base rates for same-class and cross-class partners."""
    intra = np.where(regimes == 0, params.p1, params.p2)
    inter = np.where(regimes == 0, params.q1, params.q2)
    return intra, inter


def generate_csbm(params: CsbmParams, include_ego: bool = False) -> CsbmSample:
    """Sample features, labels, regimes, degrees, and graph(s).

    The undirected graph samples each unordered pair once with probability
    clip(theta_i theta_j (B(h_i) + B(h_j)) / 2, 0, 1); pairs whose raw
    probability exceeded 1 are counted in ``clipped_pairs``.  With
    ``include_ego`` a directed adjacency is drawn as well, where row i
    uses node i's own regime matrix only.
    """
    params.validate()
    n = params.n
    root = np.random.SeedSequence([_SEED_DOMAIN_CSBM, params.seed])
    rng_nodes, rng_feat, rng_edges, rng_ego = [
        np.random.default_rng(s) for s in root.spawn(4)
    ]

    labels = np.concatenate([
        np.ones(params.n_a, dtype=np.int8),
        np.zeros(params.n_n, dtype=np.int8),
    ])
    regimes = (rng_nodes.random(n) < params.regime_frac).astype(np.int8)

    theta = rng_nodes.uniform(params.theta_min, params.theta_max, size=n)
    for cls in (0, 1):
        mask = labels == cls
        theta[mask] /= theta[mask].mean()

    d = params.dim
    x = np.empty((n, d), dtype=np.float64)
    x[: params.n_a] = params.mu + rng_feat.standard_normal((params.n_a, d)) / np.sqrt(d)
    x[params.n_a :] = params.nu + rng_feat.standard_normal((params.n_n, d)) / np.sqrt(d)

    intra, inter = _node_rate_tables(params, regimes)
    src, dst, clipped = _sample_pairs(rng_edges, labels, theta, intra, inter, ego=False)
    adjacency = SparseAdjacency.from_edges(n, np.stack([src, dst], axis=1))

    ego = None
    if include_ego:
        from scipy.sparse import csr_matrix

        src, dst, ego_clipped = _sample_pairs(rng_ego, labels, theta, intra, inter, ego=True)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=offsets[1:])
        ego = csr_matrix((np.ones(len(dst)), dst, offsets), shape=(n, n))
        clipped += ego_clipped

    dataset = GraphDataset(
        adjacency=adjacency,
        features=x.astype(np.float32),
        labels=labels,
        splits=[],
        name="csbm",
    )
    return CsbmSample(
        dataset=dataset,
        regimes=regimes,
        theta=theta,
        ego=ego,
        clipped_pairs=clipped,
    )


def _sample_pairs(rng, labels, theta, intra, inter, ego: bool):
    """Draw each pair (i, j) once, 512 rows i at a time: j > i for the
    undirected graph, every j != i for the ego draw.  Returns the drawn
    (rows, cols) in row-major order and the count of pairs whose raw
    probability exceeded 1 before it was clipped."""
    n = len(labels)
    srcs, dsts = [], []
    clipped = 0
    cols = np.arange(n)
    for lo in range(0, n, _BLOCK):
        rows = np.arange(lo, min(lo + _BLOCK, n))
        same = labels[rows, None] == labels[None, :]
        val_i = np.where(same, intra[rows, None], inter[rows, None])
        if ego:  # row-node regime governs the whole row
            prob = theta[rows, None] * theta[None, :] * val_i
            candidate = cols[None, :] != rows[:, None]
        else:
            val_j = np.where(same, intra[None, :], inter[None, :])
            prob = theta[rows, None] * theta[None, :] * 0.5 * (val_i + val_j)
            candidate = cols[None, :] > rows[:, None]
        clipped += int(np.sum((prob > 1.0) & candidate))
        np.clip(prob, 0.0, 1.0, out=prob)
        r, c = np.nonzero((rng.random((len(rows), n)) < prob) & candidate)
        srcs.append(rows[r])
        dsts.append(c)
    return np.concatenate(srcs), np.concatenate(dsts), clipped


def standard_splits(
    labels: np.ndarray,
    num_splits: int = 10,
    labeled_anomalies: int = 20,
    labeled_normals: int = 80,
    seed: int = 0,
) -> list[SplitSet]:
    """Limited-supervision splits: a fixed labeled budget per split,
    divided evenly between train and val; everything else is test."""
    anom = np.nonzero(labels == 1)[0]
    norm = np.nonzero(labels == 0)[0]
    if len(anom) < labeled_anomalies or len(norm) < labeled_normals:
        raise ValueError("not enough labeled nodes for the requested budget")
    splits = []
    for k in range(num_splits):
        rng = np.random.default_rng(np.random.SeedSequence([_SEED_DOMAIN_CSBM, seed, 7, k]))
        pick_a = rng.choice(anom, size=labeled_anomalies, replace=False)
        pick_n = rng.choice(norm, size=labeled_normals, replace=False)
        half_a = labeled_anomalies // 2
        half_n = labeled_normals // 2
        train = np.sort(np.concatenate([pick_a[:half_a], pick_n[:half_n]]))
        val = np.sort(np.concatenate([pick_a[half_a:], pick_n[half_n:]]))
        unlabeled = np.ones(len(labels), dtype=bool)
        unlabeled[train] = False
        unlabeled[val] = False
        test = np.flatnonzero(unlabeled).astype(np.int64, copy=False)
        splits.append(SplitSet(train=train, val=val, test=test))
    return splits


# ---------------------------------------------------------------------------
# Random-walk filtering
# ---------------------------------------------------------------------------


def random_walk_filter(a, x: np.ndarray, regimes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Node-adaptive one-step random-walk filter over row neighborhoods.

    Row i is +(S X)_i for homophilic nodes and -(S X)_i for heterophilic
    nodes, with S = D^-1 A and D the row's neighbor count.  ``a`` is a CSR
    with unit values: the dataset graph's ``adjacency.to_csr()`` or the directed
    ego draw.  Isolated rows are zero and flagged in the returned mask
    rather than raising.
    """
    deg = np.diff(a.indptr).astype(np.float64)
    isolated = deg == 0
    sx = a @ np.asarray(x, dtype=np.float64)
    safe = np.where(isolated, 1.0, deg)
    sx /= safe[:, None]
    sx[isolated] = 0.0
    signs = np.where(np.asarray(regimes) == 0, 1.0, -1.0)
    return sx * signs[:, None], isolated


# ---------------------------------------------------------------------------
# Separator and the experiment
# ---------------------------------------------------------------------------


def theoretical_separator(
    mu: np.ndarray, nu: np.ndarray, pi_a: float, R: float = 1.0
) -> SeparatorSpec:
    """Closed-form separator: direction along nu - mu, midpoint bias, and
    the prior-shift term tau_pi = R log(pi_a/pi_n) / ||mu - nu||."""
    mu = np.asarray(mu, dtype=np.float64)
    nu = np.asarray(nu, dtype=np.float64)
    gap = float(np.linalg.norm(mu - nu))
    if gap == 0.0:
        raise ValueError("mu and nu coincide; the separator direction is undefined")
    if not 0.0 < pi_a < 1.0:
        raise ValueError("pi_a must lie strictly between 0 and 1")
    if not R > 0.0:
        raise ValueError(f"R must be > 0, got {R!r}")
    w_star = R * (nu - mu) / gap
    tau_pi = R * np.log(pi_a / (1.0 - pi_a)) / gap
    b_star = -float((mu + nu) @ w_star) / 2.0 + tau_pi
    return SeparatorSpec(w_star=w_star, b_star=float(b_star), R=R, tau_pi=float(tau_pi))


def kappa_eff(params: CsbmParams) -> float:
    """Smallest prior-weighted connectivity across classes and regimes."""
    pa, pn = params.pi_a, 1.0 - params.pi_a
    return min(
        pa * params.p1 + pn * params.q1,
        pa * params.q1 + pn * params.p1,
        pa * params.p2 + pn * params.q2,
        pa * params.q2 + pn * params.p2,
    )


def margin_condition_value(params: CsbmParams) -> float:
    """||mu - nu|| sqrt(d n kappa_eff) / log n; larger favors separability."""
    gap = float(np.linalg.norm(np.asarray(params.mu) - np.asarray(params.nu)))
    return float(gap * np.sqrt(params.dim * params.n * kappa_eff(params)) / np.log(params.n))


def _decision_bias(sep: SeparatorSpec, filtered: np.ndarray, labels: np.ndarray) -> float:
    """Bias used for classification (linear discriminant analysis): the
    midpoint bias minus tau_pi times the pooled within-class variance of
    the unit-direction projections.  The variance factor is the textbook
    correction for Gaussians with spherical covariance; without it the
    prior term exceeds any achievable margin once the classes are
    imbalanced.
    """
    midpoint_bias = sep.b_star - sep.tau_pi
    proj = filtered @ sep.w_star / sep.R
    var_sum = 0.0
    count = 0
    for cls in (0, 1):
        vals = proj[labels == cls]
        if len(vals) > 1:
            var_sum += float(np.sum((vals - vals.mean()) ** 2))
            count += len(vals) - 1
    sigma2 = var_sum / count if count else 0.0
    return midpoint_bias - sigma2 * sep.tau_pi


def separability_experiment(params: CsbmParams) -> SeparabilityResult:
    """Generate, filter node-adaptively on the ego neighborhoods, classify
    with the closed-form separator at R = 1 (R scales the margins, never
    a decision) and the bias of ``_decision_bias``, and report accuracies
    and margins.

    Also classifies an all-low-pass variant (heterophilic nodes
    misfiltered) to expose the margin degradation.  Nodes with no ego
    out-edges are excluded.  ``generate_csbm`` validates ``params``.
    """
    sample = generate_csbm(params, include_ego=True)
    labels = sample.dataset.labels.astype(np.int64)
    x = np.asarray(sample.dataset.features, dtype=np.float64)

    gap = float(np.linalg.norm(np.asarray(params.mu) - np.asarray(params.nu)))
    if gap == 0.0:
        # no feature signal: majority-class prediction is the best constant
        majority = 0 if params.n_n >= params.n_a else 1
        acc = max(params.pi_a, 1.0 - params.pi_a)
        per_class = {0: 1.0 if majority == 0 else 0.0, 1: 1.0 if majority == 1 else 0.0}
        return SeparabilityResult(
            accuracy=acc,
            acc_anomaly=per_class[1],
            acc_normal=per_class[0],
            accuracy_misfiltered=acc,
            mean_margin=0.0,
            mean_margin_misfiltered=0.0,
            kappa_eff=kappa_eff(params),
            margin_value=0.0,
            separator=None,
        )

    sep = theoretical_separator(params.mu, params.nu, params.pi_a)

    adaptive, isolated = random_walk_filter(sample.ego, x, sample.regimes)
    all_low, _ = random_walk_filter(sample.ego, x, np.zeros_like(sample.regimes))
    keep = ~isolated

    def classify(filtered):
        bias = _decision_bias(sep, filtered[keep], labels[keep])
        scores = filtered[keep] @ sep.w_star + bias
        pred = (scores < 0.0).astype(np.int64)
        truth = labels[keep]
        acc = float(np.mean(pred == truth))
        acc_a = float(np.mean(pred[truth == 1] == 1)) if np.any(truth == 1) else float("nan")
        acc_n = float(np.mean(pred[truth == 0] == 0)) if np.any(truth == 0) else float("nan")
        # signed margin: positive when a node sits on its required side
        margin = float(np.mean(np.where(truth == 1, -scores, scores)))
        return acc, acc_a, acc_n, margin

    acc, acc_a, acc_n, margin = classify(adaptive)
    acc_low, _, _, margin_low = classify(all_low)

    return SeparabilityResult(
        accuracy=acc,
        acc_anomaly=acc_a,
        acc_normal=acc_n,
        accuracy_misfiltered=acc_low,
        mean_margin=margin,
        mean_margin_misfiltered=margin_low,
        kappa_eff=kappa_eff(params),
        margin_value=margin_condition_value(params),
        separator=sep,
    )

