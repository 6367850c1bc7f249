"""CLI reports of the closed-form families: decompose, hyperelliptic and census.

Each builder takes the parsed command line and returns its report as
(payload, lines), the JSON document and the text or dot lines;
`cli.main` imports this module only to run one of them.
"""

from __future__ import annotations

from . import covers, locus
from ._ser import LIST_CAP, _load_json, to_json


def cmd_decompose(args) -> tuple[dict, list[str]]:
    profile = covers.profile_from_json(_load_json(args.file))
    report = locus.decomposition_report(profile)
    lines = [f"case: {report.case}", f"kernel order: {report.kernel_order}"]
    lines.extend(f"- {s}" for s in report.statements)
    return to_json(report), lines


def _hyperelliptic_payload(report) -> dict:
    comps = []
    for rec in report.components:
        entry = {
            "label": rec.label,
            "c": rec.c,
            "dimension": rec.dimension,
            "boundary_class_count": len(rec.boundary_classes),
            "normal": rec.normal,
        }
        if len(rec.boundary_classes) <= LIST_CAP:
            entry["boundary_classes"] = sorted(
                sorted(q) for q in rec.boundary_classes)
        comps.append(entry)
    pairwise = {
        f"{a} & {b}": len(shared)
        for (a, b), shared in sorted(report.pairwise_intersections.items())
    }
    return {
        "g": report.g,
        "d": report.d,
        "components": comps,
        "pairwise_intersection_counts": pairwise,
        "global_intersection": sorted(sorted(q) for q in report.global_intersection),
        "max_dimension": report.max_dimension,
        "semistable_class_count": report.boundary_class_count,
        "subset_label_count": report.subset_label_count,
    }


def cmd_hyperelliptic(args) -> tuple[dict, list[str]]:
    report = locus.hyperelliptic_report(args.g, with_classes=args.g <= 4)
    payload = _hyperelliptic_payload(report)
    if args.format == "dot":
        lines = ["graph components {"]
        for rec in report.components:
            lines.append(
                f'  "{rec.label}" [label="{rec.label} dim={rec.dimension} '
                f'classes={len(rec.boundary_classes)}"];')
        for (a, b), shared in sorted(report.pairwise_intersections.items()):
            lines.append(f'  "{a}" -- "{b}" [label="{len(shared)}"];')
        lines.append("}")
    else:
        lines = [f"g = {report.g}, d = {report.d}"]
        for rec in report.components:
            lines.append(f"{rec.label}: dimension {rec.dimension}, "
                         f"{len(rec.boundary_classes)} boundary classes, "
                         f"normal: {'yes' if rec.normal else 'no'}")
        for (a, b), shared in sorted(report.pairwise_intersections.items()):
            lines.append(f"{a} & {b}: {len(shared)} shared classes")
        lines.append(f"global intersection: {payload['global_intersection']}")
        lines.append(f"max dimension: {report.max_dimension}")
        if report.boundary_class_count >= 0:
            lines.append(f"semistable classes: {report.boundary_class_count}")
    return payload, lines


def cmd_census(args) -> tuple[dict, list[str]]:
    record = locus.unramified_census(args.n, args.deg_delta, args.genus_y)
    lines = [f"case: {record.case}"]
    for comp in record.components:
        lines.append(f"- {comp.count} x {comp.kind}: {comp.description}")
    lines.append(record.intersection_note)
    return to_json(record), lines
