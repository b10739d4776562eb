"""CLI — the ``ray job submit`` entrypoint (north rule: runs are
submitted as Ray jobs against a fixed cluster; in this sandbox the same
commands run against a local session).

Examples::

    python -m autoprepad_ray gen-fimg --out /tmp/fimg --partitions 8 --rows 5000
    python -m autoprepad_ray validate-images --images /tmp/fimg/images \
        --captions /tmp/fimg/captions.parquet --out /tmp/run1
    python -m autoprepad_ray validate-images ... --out /tmp/run1   # resumes
    python -m autoprepad_ray profile --table x.parquet --columns a,b
    python -m autoprepad_ray experiment --rows 2000
    python -m autoprepad_ray text-audit --docs docs.parquet --out /tmp/audit
"""

from __future__ import annotations

import argparse
import json
import sys


def _ensure_ray(num_cpus: int | None):
    import ray

    if not ray.is_initialized():
        kwargs = dict(address="local", include_dashboard=False,
                      logging_level="ERROR")
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
        ray.init(**kwargs)
    from .context import quiet_data_context
    quiet_data_context()


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="autoprepad_ray")
    p.add_argument("--num-cpus", type=int, default=None)
    sub = p.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen-fimg", help="generate the synthetic image table")
    g.add_argument("--out", required=True)
    g.add_argument("--partitions", type=int, default=8)
    g.add_argument("--rows", type=int, default=5000)
    g.add_argument("--seed", type=int, default=42)
    g.add_argument("--clean", action="store_true",
                   help="no anomaly injections")

    v = sub.add_parser("validate-images",
                       help="checkpointed validation run (resumable)")
    v.add_argument("--images", required=True)
    v.add_argument("--captions", default=None)
    v.add_argument("--out", required=True)
    v.add_argument("--ref-partitions", default="0,1,2")
    v.add_argument("--no-decode", action="store_true")

    pr = sub.add_parser("profile", help="profile a parquet table")
    pr.add_argument("--table", required=True)
    pr.add_argument("--columns", default=None)
    pr.add_argument("--out", default=None)
    pr.add_argument("--html", default=None,
                    help="also write a self-contained HTML report")

    e = sub.add_parser("experiment",
                       help="inject-evaluate harness on F-MIXED")
    e.add_argument("--rows", type=int, default=2000)
    e.add_argument("--seed", type=int, default=42)

    ta = sub.add_parser(
        "text-audit",
        help="corpus quality audit: decontamination + repetition + "
             "quality signals over a documents parquet")
    ta.add_argument("--docs", required=True,
                    help="parquet with (doc_id, text) columns")
    ta.add_argument("--eval-docs", default=None,
                    help="parquet of benchmark docs (n-gram source); "
                         "default: the doc_id %% 97 == 0 slice of --docs")
    ta.add_argument("--out", required=True, help="output directory")
    ta.add_argument("--ngram", type=int, default=8)
    ta.add_argument("--text-col", default="text")
    ta.add_argument("--id-col", default="doc_id")
    ta.add_argument("--sharded", action="store_true",
                    help="checkpoint/resume per parquet shard "
                         "(--docs may be a dir or glob); re-running "
                         "skips completed shards")

    cc = sub.add_parser(
        "corpus-clean",
        help="write the cleaned corpus: Gopher quality gate + "
             "decontamination + global exact dedup, per-shard "
             "checkpointed parquet output")
    cc.add_argument("--docs", required=True,
                    help="parquet file, dir, or glob of document shards")
    cc.add_argument("--eval-docs", default=None,
                    help="parquet of benchmark docs (n-gram source); "
                         "default: the doc_id %% 97 == 0 slice of --docs")
    cc.add_argument("--out", required=True, help="output directory")
    cc.add_argument("--ngram", type=int, default=8)
    cc.add_argument("--text-col", default="text")
    cc.add_argument("--id-col", default="doc_id")

    args = p.parse_args(argv)
    _ensure_ray(args.num_cpus)

    if args.cmd == "gen-fimg":
        from .fixtures import generate_fimg
        exp = generate_fimg(args.out, partitions=args.partitions,
                            rows=args.rows, seed=args.seed,
                            inject=not args.clean, use_ray=True)
        print(json.dumps({"out": args.out,
                          "partitions": args.partitions,
                          "rows_per_partition": args.rows,
                          "injected": not args.clean}))
    elif args.cmd == "validate-images":
        from .pipelines.runner import run_validation
        ref = tuple(int(x) for x in args.ref_partitions.split(","))
        manifest = run_validation(
            args.images, args.out, captions_path=args.captions,
            ref_partitions=ref, decode=not args.no_decode)
        fails = {k: v["verdict"]["fail"]
                 for k, v in manifest["partitions"].items()}
        print(json.dumps({"out": args.out, "partitions": len(fails),
                          "failed": sorted(k for k, f in fails.items()
                                           if f)}))
    elif args.cmd == "profile":
        from .io import read_table
        from .profile import profile_dataset
        cols = args.columns.split(",") if args.columns else None
        prof = profile_dataset(read_table(args.table), columns=cols)
        js = prof.to_json()
        if args.out:
            with open(args.out, "w") as f:
                f.write(js)
        if args.html:
            from .report import profile_to_html
            with open(args.html, "w") as f:
                f.write(profile_to_html(prof))
        summary = {c: {"n": s.count, "nulls": s.null_count,
                       "distinct": round(s.distinct())}
                   for c, s in prof.columns.items()}
        print(json.dumps({"n_rows": prof.n_rows, "columns": summary}))
    elif args.cmd == "corpus-clean":
        from .pipelines.corpus import run_corpus_clean
        manifest = run_corpus_clean(args.docs, args.out,
                                    eval_docs=args.eval_docs,
                                    ngram=args.ngram,
                                    text_col=args.text_col,
                                    id_col=args.id_col)
        print(json.dumps({
            "out": args.out, "ngram": args.ngram,
            "shards": len(manifest["shards"]),
            "ran": manifest["runs"][-1]["pending"],
            "total_clean": manifest["runs"][-1]["total_clean"]}))
    elif args.cmd == "text-audit" and args.sharded:
        from .pipelines.corpus import run_text_audit
        manifest = run_text_audit(args.docs, args.out,
                                  eval_docs=args.eval_docs,
                                  ngram=args.ngram,
                                  text_col=args.text_col,
                                  id_col=args.id_col)
        print(json.dumps({
            "out": args.out, "ngram": args.ngram,
            "shards": len(manifest["shards"]),
            "ran": manifest["runs"][-1]["pending"],
            "contaminated_docs":
                manifest["runs"][-1]["total_contaminated"]}))
    elif args.cmd == "text-audit":
        import os

        import pyarrow as pa

        from .io import read_table
        from .stages.text import decontaminate, eval_gram_set, \
            word_repetition

        docs = read_table(args.docs, columns=[args.id_col, args.text_col])
        if args.eval_docs:
            ev = read_table(args.eval_docs,
                            columns=[args.id_col, args.text_col])
        else:
            def _slice(t: pa.Table) -> pa.Table:
                ids = t[args.id_col].to_numpy(zero_copy_only=False)
                return t.filter(pa.array(ids % 97 == 0))
            ev = docs.map_batches(_slice, batch_format="pyarrow",
                                  zero_copy_batch=True)
        ref = eval_gram_set(ev, text_col=args.text_col, n=args.ngram)
        os.makedirs(args.out, exist_ok=True)
        dec = decontaminate(docs, ref, text_col=args.text_col,
                            id_col=args.id_col, n=args.ngram)
        dec.write_parquet(f"{args.out}/decontamination")
        rep = word_repetition(docs, text_col=args.text_col,
                              id_col=args.id_col)
        rep.write_parquet(f"{args.out}/repetition")
        n_cont = int(read_table(f"{args.out}/decontamination",
                                columns=["contaminated"])
                     .sum("contaminated") or 0)
        print(json.dumps({"out": args.out, "ngram": args.ngram,
                          "contaminated_docs": n_cont}))
    elif args.cmd == "experiment":
        import ray.data as rd

        from .fixtures import generate_fmixed
        from .pipelines.experiment import run_experiment
        table, _ = generate_fmixed(args.rows, seed=args.seed)
        out = run_experiment(rd.from_arrow(table).repartition(4))
        print(json.dumps({"or_merge": out["or_merge"],
                          "sweep_10pct": out["sweep"][9]}))
    import ray
    ray.shutdown()
    return 0


def _main() -> int:
    try:
        return main()
    except (FileNotFoundError, ValueError, ImportError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(_main())
