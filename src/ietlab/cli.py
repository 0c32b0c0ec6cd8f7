"""``ietlab report census L``: the census rows of the (4321) Rauzy class up
to loop length L, and each qualifying cycle's base, edge labels and
characteristic polynomial coefficients, as one JSON object."""
import argparse
import json

from .rauzy import census_rows, class_of, enumerate_cycles


def census_report(cap: int):
    """The report as a JSON-ready dict, from one pass over the class."""
    base = (4, 3, 2, 1)
    hits = [c for c in enumerate_cycles(class_of(base), cap) if c.is_qualifying()]
    rows = {str(L): list(row) for L, row in census_rows(hits, cap).items()}
    cycles = [
        {"base": list(c.base), "labels": list(c.edge_labels), "charpoly": list(c.charpoly().coeffs)}
        for c in hits
    ]
    return {"class": list(base), "cap": cap, "rows": rows, "cycles": cycles}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ietlab")
    report = parser.add_subparsers(dest="command", required=True).add_parser("report")
    report.add_argument("what", choices=["census"])
    report.add_argument("cap", type=int, help="longest loop length L")
    args = parser.parse_args(argv)
    if args.cap < 1:
        parser.error("L must be at least 1")
    print(json.dumps(census_report(args.cap)))
    return 0
