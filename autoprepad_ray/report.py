"""Profile artifact -> human-readable markdown report (the engine's
analogue of the reference's ydata-profiling DQ_report.html hook, S5 at
configuration.py:559-566 — here the Profile artifact IS the report)."""

from __future__ import annotations

from .profile import TableProfile


def profile_to_markdown(prof: TableProfile, title: str = "Data profile"
                        ) -> str:
    lines = [f"# {title}", "",
             f"rows: **{prof.n_rows}**"
             + (f" · fingerprint `{prof.fingerprint}`"
                if prof.fingerprint else ""), "",
             "| column | kind | n | nulls | distinct | min | max | mean "
             "| std | p25 | p50 | p75 | mode |",
             "|---|---|---|---|---|---|---|---|---|---|---|---|---|"]
    for name, s in prof.columns.items():
        m = s.moments

        def fmt(x):
            if x is None:
                return ""
            if isinstance(x, float):
                return f"{x:.6g}"
            return str(x)

        if s.kind in ("numeric", "timestamp"):
            stats = [fmt(m.vmin), fmt(m.vmax), fmt(m.mean), fmt(m.std),
                     fmt(s.quantile(0.25)), fmt(s.quantile(0.5)),
                     fmt(s.quantile(0.75)), ""]
        else:
            mode = s.mode()
            stats = ["", "", "", "", "", "", "",
                     fmt(mode[0]) if mode else ""]
        approx = "" if s.exact_quantiles else "~"
        lines.append(
            f"| {name} | {s.kind} | {s.count} | {s.null_count} "
            f"| {approx}{round(s.distinct())} | " + " | ".join(stats) + " |")
    lines.append("")
    return "\n".join(lines)


_CSS = """
body{font-family:system-ui,sans-serif;margin:24px;color:#222}
h1,h2{font-weight:600} table{border-collapse:collapse;margin:12px 0}
th,td{border:1px solid #ccc;padding:4px 10px;text-align:right;
font-variant-numeric:tabular-nums} th{background:#f3f3f3}
td:first-child,th:first-child{text-align:left}
.fail{background:#fdd} .ok{background:#dfd}
code{background:#f6f6f6;padding:1px 4px;border-radius:3px}
"""


def _html_table(headers: list, rows: list, classes=None) -> str:
    out = ["<table><tr>" + "".join(f"<th>{h}</th>" for h in headers)
           + "</tr>"]
    for i, r in enumerate(rows):
        cls = f' class="{classes[i]}"' if classes else ""
        out.append(f"<tr{cls}>"
                   + "".join(f"<td>{c}</td>" for c in r) + "</tr>")
    out.append("</table>")
    return "".join(out)


def profile_to_html(prof: TableProfile, title: str = "Data profile"
                    ) -> str:
    """Self-contained HTML profile report — the S4/S5 viz surface (the
    reference renders its pipeline via sklearn's HTML repr,
    control.py:234-256, and hooks ydata-profiling for the data report,
    configuration.py:559-566; the engine renders its own artifacts,
    dependency-free)."""

    def fmt(x):
        if x is None:
            return ""
        if isinstance(x, float):
            return f"{x:.6g}"
        return str(x)

    rows, classes = [], []
    for name, s in prof.columns.items():
        m = s.moments
        if s.kind in ("numeric", "timestamp"):
            stats = [fmt(m.vmin), fmt(m.vmax), fmt(m.mean), fmt(m.std),
                     fmt(s.quantile(0.25)), fmt(s.quantile(0.5)),
                     fmt(s.quantile(0.75)), ""]
        else:
            mode = s.mode()
            stats = [""] * 7 + [fmt(mode[0]) if mode else ""]
        approx = "" if s.exact_quantiles else "&asymp;"
        rows.append([name, s.kind, s.count, s.null_count,
                     f"{approx}{round(s.distinct())}"] + stats)
        classes.append("")
    body = _html_table(
        ["column", "kind", "n", "nulls", "distinct", "min", "max",
         "mean", "std", "p25", "p50", "p75", "mode"], rows, classes)
    meta = (f"rows: <b>{prof.n_rows}</b>"
            + (f" &middot; fingerprint <code>{prof.fingerprint}</code>"
               if prof.fingerprint else ""))
    return (f"<!doctype html><html><head><meta charset='utf-8'>"
            f"<title>{title}</title><style>{_CSS}</style></head>"
            f"<body><h1>{title}</h1><p>{meta}</p>{body}</body></html>")


def validation_to_html(rep, title: str = "Image validation report"
                       ) -> str:
    """ImageValidationReport -> self-contained HTML: per-partition
    verdicts (fail rows highlighted), drift PSI, candidate-listing
    summaries, stage timings, and the column profile."""
    parts = [f"<h1>{title}</h1>"]
    if rep.schema_errors:
        parts.append("<h2>Schema errors</h2><ul>"
                     + "".join(f"<li>{e}</li>" for e in rep.schema_errors)
                     + "</ul>")
    v = rep.verdicts
    parts.append("<h2>Per-partition verdicts</h2>")
    parts.append(_html_table(
        list(v.columns),
        v.astype(object).values.tolist(),
        ["fail" if f else "ok" for f in v["fail"]]))
    if rep.drift_psi is not None and len(rep.drift_psi):
        d = rep.drift_psi.round(4)
        parts.append("<h2>Drift (PSI vs reference partitions)</h2>")
        parts.append(_html_table(list(d.columns),
                                 d.astype(object).values.tolist()))
    counts = [
        ("duplicate image_ids", 0 if rep.dup_ids is None
         else len(rep.dup_ids)),
        ("referential orphans", 0 if rep.orphans is None
         else len(rep.orphans)),
        ("exact near-dup phash groups", 0 if rep.neardup_groups is None
         else len(rep.neardup_groups)),
        (f"banded-Hamming pairs (path={rep.hamming_path})",
         0 if rep.neardup_pairs is None else len(rep.neardup_pairs)),
        ("decode violations", 0 if rep.decode_violations is None
         else len(rep.decode_violations)),
    ]
    parts.append("<h2>Cross-partition checks</h2>")
    parts.append(_html_table(["check", "violations"],
                             [[k, n] for k, n in counts]))
    if rep.timings:
        parts.append("<h2>Stage timings (s)</h2>")
        parts.append(_html_table(
            ["stage", "wall"], [[k, v] for k, v in rep.timings.items()]))
    prof_html = profile_to_html(rep.profile, title="Column profile")
    prof_body = prof_html.split("<body>", 1)[1].rsplit("</body>", 1)[0]
    parts.append(prof_body.replace("<h1>", "<h2>")
                 .replace("</h1>", "</h2>"))
    return (f"<!doctype html><html><head><meta charset='utf-8'>"
            f"<title>{title}</title><style>{_CSS}</style></head>"
            f"<body>{''.join(parts)}</body></html>")
