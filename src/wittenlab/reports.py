"""Deterministic CSV/JSON report writers shared by the CLI and demos."""

from __future__ import annotations

import csv
import json

__all__ = ["fmt", "write_csv", "write_json", "Report"]


def fmt(x):
    """Stable text form for numbers (full precision, locale-free)."""
    if isinstance(x, float):
        return f"{x:.17g}"
    if isinstance(x, complex):
        return f"{x.real:.17g}{x.imag:+.17g}j"
    return str(x)


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(x) for x in row])


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


class Report:
    """Pass/fail accumulator with printable lines and a JSON summary."""

    def __init__(self, name):
        self.name = name
        self.checks = []

    def check(self, label, ok, detail=""):
        self.checks.append((label, bool(ok), detail))
        print(f"[{'PASS' if ok else 'FAIL'}] {label}" + (f" ({detail})" if detail else ""))
        return bool(ok)

    @property
    def passed(self):
        return all(ok for _, ok, _ in self.checks)

    def summary(self):
        return {
            "name": self.name,
            "passed": self.passed,
            "checks": [
                {"label": l, "ok": ok, "detail": d} for l, ok, d in self.checks
            ],
            "data": {},
        }
