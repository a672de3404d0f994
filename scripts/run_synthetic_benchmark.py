#!/usr/bin/env python3
"""End-to-end synthetic benchmark: joint model vs orthogonal baseline.

Builds a bilingual suffix-grammar world with rank-dependent embedding
noise, trains every system on the same seed dictionary, and reports
precision@1 on the non-lemma forms of held-out lexemes, overall and per
frequency bin. Writes each system's report files (summary, bins and tags
TSVs and report.json, as `morphlex evaluate` does) plus a combined summary
table on stdout.
"""

import argparse
import os
import sys
from dataclasses import replace

from morphlex.baseline import procrustes_fit
from morphlex.evaluation import precision_at_1, write_report
from morphlex.morph import learn_analyzer, learn_inflector
from morphlex.pipeline import JointConfig, translate_many
from morphlex.synthetic import build_bilingual_task
from morphlex.translator import TrainConfig, seed_rows, train


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n-lexemes", type=int, default=120)
    parser.add_argument("--dim", type=int, default=24)
    parser.add_argument("--alpha", type=float, default=10.0)
    parser.add_argument("--max-epochs", type=int, default=30)
    parser.add_argument("--bin-width", type=int, default=60)
    parser.add_argument("--num-bins", type=int, default=10)
    parser.add_argument("--out-dir", default="benchmark-out")
    args = parser.parse_args()

    task = build_bilingual_task(seed=args.seed, n_lexemes=args.n_lexemes, dim=args.dim)
    print(
        f"world: {len(task.source_space)} forms per language, "
        f"{len(task.train_lexemes)} train / {len(task.heldout_lexemes)} held-out lexemes, "
        f"{len(task.seed_pairs)} seed pairs, {len(task.eval_dictionary)} eval entries",
        file=sys.stderr,
    )

    analyzer = learn_analyzer(task.source_unimorph)
    inflector = learn_inflector(task.target_unimorph)
    result = train(
        seed_rows(task.seed_pairs, task.source_space, task.target_space),
        task.target_space,
        TrainConfig(alpha=args.alpha, max_epochs=args.max_epochs, seed=args.seed),
    )
    print(
        f"translator: {result.epochs_run} epochs, best dev loss "
        f"{result.best_dev_loss:.4f} at epoch {result.best_epoch}",
        file=sys.stderr,
    )
    proc = procrustes_fit(task.seed_pairs, task.source_space, task.target_space)

    base = JointConfig(
        "base", result.model, task.source_space, task.target_space, analyzer, inflector
    )
    configs = {
        "base": base,
        "hybrid": replace(base, mode="hybrid"),
        "oracle": replace(base, mode="oracle"),
        "translator-direct": replace(base, mode="direct"),
        "procrustes": replace(base, mode="direct", model=proc),
    }

    os.makedirs(args.out_dir, exist_ok=True)
    print(f"{'system':18s}\tvoc\tall\tuntranslatable")
    forms = [entry.source for entry in task.eval_dictionary.entries]
    golds = [task.gold_analyses.get(form) for form in forms]
    for name, config in configs.items():
        report = precision_at_1(
            translate_many(config, forms, golds),
            task.eval_dictionary,
            task.source_space,
            bin_width=args.bin_width,
            num_bins=args.num_bins,
        )
        write_report(report, os.path.join(args.out_dir, name))
        print(
            f"{name:18s}\t{report.voc.accuracy:.3f}\t{report.all.accuracy:.3f}"
            f"\t{report.untranslatable}"
        )
    print(f"per-system TSV reports in {args.out_dir}/", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
