"""Benchmark workloads: sweep configs made from a seed, and their exact call counts.

Each workload is a ``gseat sweep`` config without ``seeds``.  A run with
workload seed ``s`` sweeps the per-sweep seeds ``k*s + i`` for ``i < k``, one
seed per sweep, so accuracy is a mean over ``k`` independent graphs and
splits.  See README.md for why each workload exists.
"""

from __future__ import annotations

# the block model, attack and training block of scripts/run_sbm_table.py
DESK_SBM = {"kind": "sbm", "block_sizes": [500, 480], "p_in": 0.013, "p_out": 0.003,
            "feature_dim": 21, "feature_shift": 0.6}
RBCD = {"kind": "rbcd", "budgets": [0.05, 0.10, 0.25], "block_size": 4096,
        "iterations": 30, "lr": 500.0}
TABLE_TRAIN = {"epochs": 60, "warmup": 30, "lr": 0.2, "momentum": 0.9, "inner_steps": 2}

WORKLOADS = {
    "desk-at-gse": {
        "dataset": DESK_SBM, "model": "gcn", "methods": ["natural", "at_gse"],
        "attack": RBCD, "per_class": 20, "test_frac": 0.1, "train": TABLE_TRAIN,
    },
    "large-natural-rbcd": {
        "dataset": {**DESK_SBM, "block_sizes": [700, 700, 600]}, "model": "gcn",
        "methods": ["natural"], "attack": RBCD, "per_class": 20, "test_frac": 0.1,
        "train": {"epochs": 150, "lr": 0.2, "momentum": 0.9},
    },
    "desk-approx-gprgnn": {
        # desk block model with shift 1.0 and teleport 0.2: at shift 0.6 or
        # teleport 0.1, GPRGNN predicts one class on some seeds within 40
        # epochs, and attacked accuracy swings from 0.1 to 0.65 between seeds
        "dataset": {**DESK_SBM, "feature_shift": 1.0}, "model": "gprgnn",
        "methods": ["at_rndsvd", "at_nystrom", "rnd_gse_augment"],
        "attack": RBCD, "per_class": 20, "test_frac": 0.1,
        # GPRGNN diverges under the GCN block's lr=0.2, momentum=0.9
        "train": {"epochs": 40, "warmup": 30, "lr": 0.1, "momentum": 0.0,
                  "inner_steps": 2, "trials": 8, "ppr_teleport": 0.2},
    },
    # the 80-node sweep of acceptance criterion 10; seconds-long, for the
    # harness's own tests and not listed in BENCHMARK.json
    "smoke": {
        "dataset": {"kind": "sbm", "block_sizes": [40, 40], "p_in": 0.15, "p_out": 0.02,
                    "feature_dim": 6, "feature_shift": 0.8},
        "model": "gcn", "methods": ["natural", "at_gse"],
        "attack": {"kind": "rbcd", "budgets": [0.1], "block_size": 300, "iterations": 6,
                   "lr": 100.0},
        "per_class": 10, "test_frac": 0.1,
        "train": {"epochs": 10, "warmup": 4, "lr": 0.2, "momentum": 0.9, "inner_steps": 1},
    },
}

# k, the sweep seeds per run; the GPRGNN sweep's time is the noisiest, and the
# large sweep is the longest and steadiest
SEEDS_PER_RUN = {"desk-at-gse": 3, "large-natural-rbcd": 2, "desk-approx-gprgnn": 3, "smoke": 2}


def sweep_seeds(name: str, seed: int) -> list:
    k = SEEDS_PER_RUN[name]
    return [k * seed + i for i in range(k)]


def sweep_config(name: str, sweep_seed: int) -> dict:
    return {**WORKLOADS[name], "seeds": [sweep_seed]}


def expected_calls(config: dict) -> dict:
    """Calls per traced function for one sweep, derived from the config alone.

    The config must name every field the counts depend on, so that no
    default is restated here.  Holds while the inner loop cannot stop early,
    i.e. for ``inner_steps`` of at most 2 in the ascent methods: the
    tolerance test needs two losses, so the second step is always the last.
    """
    train = config["train"]
    epochs = train["epochs"]
    attack = config["attack"]
    budgets = len(attack["budgets"]) if attack["kind"] == "rbcd" else 0
    iterations = attack["iterations"] if budgets else 0

    calls = dict.fromkeys(
        ["spectral.full_svd", "spectral.gse_offset_prox", "spectral.randomized_svd",
         "spectral.nystrom_approx", "spectral.pseudo_inverse", "spectral.singular_spectrum",
         "gnn.loss_and_grads", "gnn.step_params", "training.train",
         "training.perturb_adjacency", "attack.rbcd_attack", "attack.evaluate_attack",
         "attack.rnd_gse_attack", "graphs.apply_perturbation"], 0)
    calls["graphs.sbm_generate"] = calls["graphs.inductive_split"] = 1
    for method in config["methods"]:
        calls["training.train"] += 1
        calls["gnn.step_params"] += epochs
        calls["gnn.loss_and_grads"] += epochs + budgets * iterations
        calls["attack.rbcd_attack"] += budgets
        calls["attack.evaluate_attack"] += budgets
        calls["graphs.apply_perturbation"] += budgets
        if method == "natural":
            continue
        adversarial = epochs - train["warmup"]
        if method == "rnd_gse_augment":
            calls["attack.rnd_gse_attack"] += adversarial
            calls["spectral.singular_spectrum"] += adversarial * train["trials"]
            calls["graphs.apply_perturbation"] += adversarial
            continue
        steps = train["inner_steps"]
        if steps > 2:
            raise ValueError("call counts are exact only for inner_steps <= 2")
        # train and validation graphs are each perturbed once per epoch
        perturbs = 2 * adversarial
        calls["training.perturb_adjacency"] += perturbs
        calls["gnn.loss_and_grads"] += perturbs * steps
        if method == "at_nystrom":
            calls["spectral.nystrom_approx"] += perturbs * steps
            calls["spectral.pseudo_inverse"] += perturbs * steps
        else:
            calls["spectral.gse_offset_prox"] += perturbs * steps
            backend = "spectral.full_svd" if method == "at_gse" else "spectral.randomized_svd"
            calls[backend] += perturbs * steps
    calls = {name: count * len(config["seeds"]) for name, count in calls.items()}
    calls["cli.run_experiment"] = 1
    return calls
