"""Experiment runner.

Subcommands:

* ``ltd``            exact limiting value of a graph file under a regime map
* ``estimate``       Monte Carlo traffic-state estimates over an n-grid (CSV)
* ``concentration``  central-moment decay and fitted log-log slope (CSV+JSON)
* ``independence``   factorization audit over the double-tree corpus (JSON)
* ``moments``        exact moment table of a graph polynomial

Every subcommand builds one matrix model from its label flags and takes its
exact evaluator from ``limits.model_ltd``.

Flag values override config-file entries (``key = value`` lines, each naming
a flag of the subcommand), which override defaults; the thread count falls
back to ``TRAFFICS_THREADS``.
CSV output is fixed to the schema
``n,samples,mean_re,mean_im,stderr,theory_re,theory_im,z`` with %.12g
floats, and identical flags plus seed give byte-identical output at any
thread count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from typing import Any, Optional, Sequence

from . import engine, ensembles, graphs, independence, limits, moments

THREADS_ENV = "TRAFFICS_THREADS"

CSV_HEADER = "n,samples,mean_re,mean_im,stderr,theory_re,theory_im,z"


# ---------------------------------------------------------------------------
# flag plumbing

def _parse_config(path: Optional[str], keys: set[str]) -> dict[str, str]:
    if not path:
        return {}
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, val = line.partition("=")
            name = key.strip().replace("-", "_")
            if name not in keys:
                raise ValueError(f"{path}:{lineno}: unknown key {key.strip()!r}")
            out[name] = val.strip()
    return out


class _Resolver:
    """flags > config > environment > default, with uniform conversions."""

    def __init__(self, args: argparse.Namespace, cfg: dict[str, str]):
        self.args = args
        self.cfg = cfg

    def raw(self, name: str, default: Any = None, env: Optional[str] = None) -> Any:
        v = getattr(self.args, name, None)
        if v is None or v == []:
            if name in self.cfg:
                v = self.cfg[name]
            elif env is not None and os.environ.get(env):
                v = os.environ[env]
            else:
                v = default
        return v

    def str_(self, name: str, default: Optional[str] = None) -> Optional[str]:
        v = self.raw(name, default)
        return None if v is None else str(v)

    def int_(self, name: str, default: Optional[int] = None,
             env: Optional[str] = None) -> Optional[int]:
        v = self.raw(name, default, env)
        return None if v is None else int(v)

    def flag(self, name: str) -> bool:
        v = self.raw(name, False)
        if isinstance(v, str):
            return v.strip().lower() in ("1", "true", "yes", "on")
        return bool(v)

    def ints(self, name: str, default: Optional[str] = None) -> tuple[int, ...]:
        v = self.raw(name, default)
        if v is None:
            raise ValueError(f"missing --{name.replace('_', '-')}")
        if isinstance(v, (tuple, list)):
            return tuple(int(x) for x in v)
        return tuple(int(part) for part in str(v).split(",") if part.strip())

    def pairs(self, name: str) -> dict[str, str]:
        """Collect repeatable LABEL=VALUE flags (commas also separate)."""
        v = self.raw(name, [])
        chunks = [v] if isinstance(v, str) else list(v)
        out: dict[str, str] = {}
        for chunk in chunks:
            for part in chunk.split(","):
                part = part.strip()
                if not part:
                    continue
                if "=" not in part:
                    raise ValueError(f"--{name} entries must look like label=value")
                key, _, val = part.partition("=")
                out[key.strip()] = val.strip()
        return out


def _parse_beta(text: str) -> Any:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"beta {text!r} divides by zero") from None
    except ValueError:
        # only a trailing i is the imaginary unit: 0.6i and 1+2i, not the i of inf
        return complex(text[:-1] + "j" if text.endswith("i") else text)


def _parse_entry(text: str) -> ensembles.EntrySpec:
    head, _, arg = text.partition(":")
    head = head.strip().lower()
    if head == "gaussian":
        # keep rational betas exact so limits render as fractions
        return ensembles.EntrySpec.gaussian(_parse_beta(arg) if arg else 1)
    if head == "rademacher":
        if arg:
            raise ValueError(f"rademacher takes no parameter, got {text!r}")
        return ensembles.EntrySpec.rademacher()
    raise ValueError(f"unknown entry law {text!r}")


def _load_graph(path: Optional[str]) -> graphs.TestGraph:
    if not path:
        raise ValueError("missing --graph")
    if path == "-":
        text = sys.stdin.read()
    elif os.path.isfile(path):
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    elif "\n" in path or ";" in path or path.split()[:1] == ["e"]:
        text = path.replace(";", "\n")
    else:
        raise FileNotFoundError(f"graph file not found: {path}")
    obj = graphs.parse_dsl(text)
    if isinstance(obj, graphs.TestGraph):
        return obj
    return obj.graph


def _fmt(x: Any) -> str:
    if isinstance(x, complex):
        return "%.12g%+.12gi" % (x.real, x.imag)
    return "%.12g" % float(x)


def _fmt_value(v: Any) -> str:
    if isinstance(v, (int, Fraction)):
        return f"{v} ≈ {float(v):.6f}"
    if isinstance(v, complex):
        return f"{v.real:.6f}{v.imag:+.6f}i"
    return f"{float(v):.6f}"


def _write_out(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv(rows: Sequence[tuple]) -> str:
    lines = [CSV_HEADER]
    for n, samples, mean, stderr, theory, z in rows:
        mean, theory = complex(mean), complex(theory)
        floats = (mean.real, mean.imag, stderr, theory.real, theory.imag, z)
        lines.append(",".join([str(n), str(samples)] + [_fmt(f) for f in floats]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# model assembly: every subcommand that evaluates or samples builds its
# model here and takes its evaluator from limits.model_ltd

def _label_pairs(
    res: _Resolver, name: str, labels: Sequence[str], every: bool = False
) -> dict[str, str]:
    """--NAME label=value pairs; each label must be a graph label, and with
    ``every`` each graph label needs a value."""
    flags = res.pairs(name)
    unknown = sorted(set(flags) - set(labels))
    if unknown:
        raise ValueError(f"--{name} names labels the graph does not have: {', '.join(unknown)}")
    missing = sorted(set(labels) - set(flags)) if every else []
    if missing:
        raise ValueError(f"--{name} gives no value for labels: {', '.join(missing)}")
    return flags


def _assemble(labels: Sequence[str], res: _Resolver) -> ensembles.MatrixModel:
    """The matrix model of --ensemble, --regime, --band, --entry and --beta
    over ``labels``; ``--band LABEL=B`` spells ``--regime LABEL=fixed:B`` and
    needs a width for every label, and ``--beta LABEL=B`` spells a Gaussian
    entry law with pseudo-variance B."""
    ensemble = res.str_("ensemble", "wigner")
    if ensemble == "haar":
        if res.pairs("regime") or res.pairs("entry") or res.pairs("band"):
            raise ValueError("haar ensembles take no regime or entry flags")
        return ensembles.MatrixModel({lab: "haar" for lab in labels})
    base = ensembles.BandProfile.parse(ensemble)
    regime_flags = _label_pairs(res, "regime", labels)
    if res.pairs("band"):
        bands = _label_pairs(res, "band", labels, every=True)
        both = sorted(set(bands) & set(regime_flags))
        if both:
            raise ValueError(f"--band and --regime both set labels: {', '.join(both)}")
        regime_flags.update({lab: f"fixed:{b}" for lab, b in bands.items()})
    entries = {lab: _parse_entry(v) for lab, v in _label_pairs(res, "entry", labels).items()}
    entries.update({
        lab: ensembles.EntrySpec.gaussian(_parse_beta(v))
        for lab, v in _label_pairs(res, "beta", labels).items()
    })
    return ensembles.MatrixModel({
        lab: (
            ensembles.BandProfile.parse(regime_flags[lab]) if lab in regime_flags else base,
            entries.get(lab, ensembles.EntrySpec.gaussian()),
        )
        for lab in labels
    })


# ---------------------------------------------------------------------------
# subcommands

def _cmd_ltd(res: _Resolver) -> int:
    T = _load_graph(res.str_("graph"))
    model = _assemble(T.labels(), res)
    ltd = limits.model_ltd(model)
    if ltd is limits.haar_ltd:
        rep = limits.classify_orthogonal_cactus(T)
        if rep.is_cactus and rep.is_anti_directed:
            pads = ",".join(map(str, rep.pad_sizes))
            line = f"orthogonal cactus: yes (pads {pads})"
        else:
            line = f"orthogonal cactus: no ({rep.reason})"
    else:
        line = _classification_line(limits.classify_double_tree(T))
    value = limits.ltd_trace(T, ltd) if res.flag("trace") else ltd(T)
    _write_out(f"{line}\nltd = {_fmt_value(value)}\n", res.str_("out"))
    return 0


def _classification_line(rep: limits.DoubleTreeReport) -> str:
    if rep.is_double_tree:
        kinds = []
        for pad in rep.pads:
            kinds.append(f"{pad.label}:{pad.orientation[0]}")
        return f"double tree: yes ({len(rep.pads)} pads: {' '.join(kinds)})"
    return f"double tree: no ({rep.reason})"


def _cmd_estimate(res: _Resolver) -> int:
    T = _load_graph(res.str_("graph"))
    model = _assemble(T.labels(), res)
    ns = res.ints("n")
    samples = res.int_("samples", 100)
    seed = res.int_("seed", 0)
    threads = res.int_("threads", None, env=THREADS_ENV)
    injective = res.flag("injective")
    ltd = limits.model_ltd(model)
    theory = ltd(T) if injective else limits.ltd_trace(T, ltd)
    rows = []
    for n in ns:
        est = engine.estimate_traffic_state(
            T, model, n, samples, seed, injective=injective, threads=threads
        )
        rows.append((n, samples, est.mean, est.stderr, theory, est.z(complex(theory))))
    _write_out(_csv(rows), res.str_("out"))
    return 0


def _cmd_concentration(res: _Resolver) -> int:
    T = _load_graph(res.str_("graph"))
    model = _assemble(T.labels(), res)
    ns = res.ints("n", "50,100,200,400")
    samples = res.int_("samples", 500)
    order = res.int_("order", 2)
    seed = res.int_("seed", 0)
    threads = res.int_("threads", None, env=THREADS_ENV)
    injective = res.flag("injective")
    rows = []
    means = []
    for n in ns:
        est = engine.central_moment_estimate(
            T, model, n, samples, order, seed, injective=injective, threads=threads
        )
        means.append(est.mean.real)
        rows.append((n, samples, est.mean, est.stderr, 0.0, est.z(0.0)))
    loops = sum(1 for e in T.edges if e.src == e.tar)
    bound = -(order // 2) * (loops + 1)
    out = res.str_("out")
    _write_out(_csv(rows), out)
    record: dict[str, Any] = {
        "order": order,
        "loop_edges": loops,
        "slope_bound": bound,
    }
    bad = [n for n, v in zip(ns, means) if not (math.isfinite(v) and v > 0)]
    if bad:
        record["slope"] = None
        record["slope_reason"] = (
            "log-log fit needs positive finite central moments; not so at n="
            + ",".join(map(str, bad))
        )
    elif len(set(ns)) < 2:
        record["slope"] = None
        record["slope_reason"] = "log-log fit needs at least two distinct n"
    else:
        import numpy as np

        slope = float(np.polyfit(np.log(ns), np.log(means), 1)[0])
        record["slope"] = float(_fmt(slope))
    line = json.dumps(record, sort_keys=True, allow_nan=False) + "\n"
    if out:
        sys.stdout.write(line)
    else:
        sys.stdout.write("\n" + line)
    return 0


def _cmd_independence(res: _Resolver) -> int:
    text = res.str_("labels", "x,y")
    labels = tuple(part.strip() for part in text.split(","))
    if not all(labels):
        raise ValueError(f"--labels needs comma-separated labels, got {text!r}")
    max_pads = res.int_("max_pads", 3)
    corpus = independence.build_double_tree_corpus(max_pads, labels)
    fams = _label_pairs(res, "families", labels) or None
    ltd = limits.model_ltd(_assemble(labels, res))
    report = independence.verify_traffic_independence(ltd, fams, corpus)
    _write_out(report.to_json() + "\n", res.str_("out"))
    return 0


def _cmd_moments(res: _Resolver) -> int:
    poly_text = res.str_("poly")
    if not poly_text:
        raise ValueError("missing --poly")
    poly = moments.parse_poly(poly_text)
    order = res.int_("order", 4)
    if order < 1:
        raise ValueError(f"moment order must be >= 1, got {order}")
    labels = {lab for mono, _ in poly.terms for lab in mono.graph.labels()}
    ltd = limits.model_ltd(_assemble(labels, res))
    lines = ["order value"]
    for k in range(1, order + 1):
        value = moments.traffic_moment(poly, k, ltd)
        if isinstance(value, (int, Fraction)):
            lines.append(f"{k} {value}")
        else:
            lines.append(f"{k} {_fmt(value)}")
    _write_out("\n".join(lines) + "\n", res.str_("out"))
    return 0


# ---------------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="key = value defaults file")
    sub.add_argument("--out", help="output file (default stdout)")


def _add_sampling(sub: argparse.ArgumentParser) -> None:
    """Flags of the subcommands that draw matrices."""
    sub.add_argument("--threads", help="sampling threads (or TRAFFICS_THREADS; "
                     "default: the cores this process may run on)")
    sub.add_argument("--seed", help="master seed for sampling streams")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="traffics",
        description="limiting traffic distributions of random band matrices",
    )
    sp = ap.add_subparsers(dest="command", required=True)

    p = sp.add_parser("ltd", help="exact limiting value of a graph")
    _add_common(p)
    p.add_argument("--graph", help="graph file (text format)")
    p.add_argument("--regime", action="append", help="label=REGIME[:PARAM]")
    p.add_argument("--entry", action="append", help="label=gaussian[:BETA]|rademacher")
    p.add_argument("--band", action="append",
                   help="label=WIDTH, the same as --regime label=fixed:WIDTH; "
                   "needs every label")
    p.add_argument("--ensemble", help="wigner|full|haar|REGIME:PARAM for all labels")
    p.add_argument("--trace", action="store_const", const=True, default=None,
                   help="sum the limit over quotients (tau instead of tau0)")

    p = sp.add_parser("estimate", help="Monte Carlo estimates over an n grid")
    _add_common(p)
    _add_sampling(p)
    p.add_argument("--graph")
    p.add_argument("--ensemble")
    p.add_argument("--regime", action="append")
    p.add_argument("--entry", action="append")
    p.add_argument("--n", help="comma-separated n grid")
    p.add_argument("--samples")
    p.add_argument("--injective", action="store_const", const=True, default=None)

    p = sp.add_parser("concentration", help="central-moment decay and slope")
    _add_common(p)
    _add_sampling(p)
    p.add_argument("--graph")
    p.add_argument("--ensemble")
    p.add_argument("--regime", action="append")
    p.add_argument("--entry", action="append")
    p.add_argument("--n")
    p.add_argument("--samples")
    p.add_argument("--order", help="even central moment order (2 = variance)")
    p.add_argument("--injective", action="store_const", const=True, default=None)

    p = sp.add_parser("independence", help="audit tau0 factorization on a corpus "
                      "under the limit of the labels' regimes (default wigner)")
    _add_common(p)
    p.add_argument("--families", action="append", help="label=family")
    p.add_argument("--beta", action="append",
                   help="label=VALUE, Gaussian pseudo-variance (complex under wigner)")
    p.add_argument("--regime", action="append", help="label=REGIME[:PARAM]")
    p.add_argument("--labels", help="corpus labels (default x,y)")
    p.add_argument("--max-pads", dest="max_pads", help="corpus pad budget")

    p = sp.add_parser("moments", help="exact moment table of a polynomial "
                      "(band regimes other than fixed)")
    _add_common(p)
    p.add_argument("--poly", help='e.g. "1*x - 1*row(x)"')
    p.add_argument("--order")
    p.add_argument("--beta", action="append", help="label=VALUE, as for independence")
    p.add_argument("--regime", action="append", help="label=REGIME[:PARAM]")
    return ap


_COMMANDS = {
    "ltd": _cmd_ltd,
    "estimate": _cmd_estimate,
    "concentration": _cmd_concentration,
    "independence": _cmd_independence,
    "moments": _cmd_moments,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        flags = set(vars(args)) - {"command", "config"}
        cfg = _parse_config(args.config, flags)
        res = _Resolver(args, cfg)
        return _COMMANDS[args.command](res)
    except (ValueError, OSError) as exc:  # user errors; anything else is a bug
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
