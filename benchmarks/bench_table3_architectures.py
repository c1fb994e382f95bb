"""Table 3 / Table 8 — KDSelector is architecture-agnostic.

Paper (all datasets):

    Architecture       ResNet   InceptionTime   Transformer
    Improved AUC-PR    0.040    0.046           0.015
    Saved time (%)     58.3%    70.96%          74.17%

For each architecture we train the default (standard framework, full data)
selector, the full KDSelector configuration (PISL + MKI + PA) and PISL + MKI
on full data.  "Improved" compares +KDSelector with Default.  "Time saved"
compares +KDSelector with PISL + MKI on full data, so only PA separates the
two fits: the paper's ResNet entry (58.3%) is Table 2's PA-vs-full-data
saving, where both fits train PISL + MKI.  Against Default the saving would
also absorb MKI's per-step cost.  Fit times come from one shared process.
Expected shape: every architecture benefits (no large regression) and PA
skips a large fraction of sample visits for all of them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import kdselector_config
from repro.system.reporting import format_table, per_dataset_table

from _harness import BENCH_LSH_BITS, default_trainer_config, train_and_evaluate

ARCHITECTURES = ["ResNet", "InceptionTime", "Transformer"]

PAPER_ROWS = {
    "ResNet": (0.040, 58.3),
    "InceptionTime": (0.046, 70.96),
    "Transformer": (0.015, 74.17),
}


@pytest.mark.benchmark(group="table3")
def test_table3_architecture_agnostic(benchmark, bench_world):
    """Default vs +KDSelector (timed against PISL + MKI on full data) per architecture."""

    def kdselector_fit(arch, pruning, label):
        config = kdselector_config(
            epochs=bench_world.scale["epochs"],
            batch_size=bench_world.scale["batch_size"],
            lsh_bits=BENCH_LSH_BITS,
            pruning=pruning,
            seed=0,
        )
        return train_and_evaluate(arch, bench_world, trainer_config=config,
                                  label=f"{arch} ({label})")

    def experiment():
        results = {}
        for arch in ARCHITECTURES:
            default_run = train_and_evaluate(
                arch, bench_world,
                trainer_config=default_trainer_config(bench_world, seed=0),
                label=f"{arch} (Default)",
            )
            results[arch] = (default_run,
                             kdselector_fit(arch, "pa", "+KDSelector"),
                             kdselector_fit(arch, "none", "PISL + MKI, full data"))
        return results

    results = benchmark.pedantic(experiment, rounds=1, iterations=1)

    print("\n=== Table 3: KDSelector on different architectures (reproduction) ===")
    rows = []
    for arch, (default_run, kd_run, full_run) in results.items():
        improved = kd_run.average_auc_pr - default_run.average_auc_pr
        saved_time = 1.0 - kd_run.training_time_s / max(full_run.training_time_s, 1e-9)
        paper_improved, paper_saved = PAPER_ROWS[arch]
        rows.append([
            arch, default_run.average_auc_pr, kd_run.average_auc_pr, improved,
            f"{100 * saved_time:.1f}%", f"{100 * kd_run.pruned_fraction:.1f}%",
            paper_improved, f"{paper_saved}%",
        ])
    print(format_table(
        ["Architecture", "Default AUC-PR", "+KDSelector AUC-PR", "Improved (ours)",
         "Time saved vs PISL+MKI (ours)", "Samples pruned", "Improved (paper)", "Time saved (paper)"],
        rows,
    ))

    per_dataset = {}
    for arch, (default_run, kd_run, _) in results.items():
        per_dataset[f"{arch} Default"] = default_run.per_dataset
        per_dataset[f"{arch} +KD"] = kd_run.per_dataset
    print("\nPer-dataset AUC-PR (reproduction, cf. paper Table 8):")
    print(per_dataset_table(per_dataset))

    improvements = []
    for arch, (default_run, kd_run, _) in results.items():
        # KDSelector must stay competitive on every architecture and prune
        # a substantial share of sample visits (the source of time savings).
        assert kd_run.average_auc_pr >= default_run.average_auc_pr - 0.10, arch
        assert kd_run.pruned_fraction > 0.15, arch
        assert default_run.pruned_fraction == 0.0, arch
        improvements.append(kd_run.average_auc_pr - default_run.average_auc_pr)
    # Across architectures KDSelector should not hurt on average (paper: it
    # improves all three); small per-architecture noise is tolerated at this
    # reduced scale.
    assert float(np.mean(improvements)) >= -0.03
