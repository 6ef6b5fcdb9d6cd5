"""Command line interface.

Subcommands: classify, rank, sweep, oracle, adjudicate, model. Exit codes:
0 success, 1 usage error, 2 data error, 3 mathematical precondition failed.
"""

import argparse
import functools
import json
import sys
from fractions import Fraction

from znrank import __version__
from znrank.errors import EpsOutOfRange, InputFormatError, TransientStatesPresent, ZnrankError
from znrank.graph import (
    DANGLING_POLICIES,
    RowStochasticMatrix,
    data_lines,
    dump_matrix_json,
    load_matrix_json,
    parse_edge_list,
    require_unichain_union,
    to_stochastic,
    uniform_matrix,
)
from znrank.rational import (EXACT, FLOAT, common_denominator, number_to_json, over_lcm, parse_ratio, parse_rational,
                             ratios_to_json)

EXACT_N_DEFAULT = 12  # auto numeric mode: exact up to here, floating above


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


SCALARS = frozenset((str, int, float, bool, type(None)))


def canonical_dumps(obj):
    """json.dumps(obj, indent=2) + "\n", byte for byte. json's C encoder
    runs only without indent, so each nonempty list or dict of scalars is
    written by it with the line break and indent as the item separator."""
    return _indented(obj, "\n") + "\n"


@functools.cache  # one per indent level
def _scalars_encoder(inner):
    return json.JSONEncoder(separators=("," + inner, ": ")).encode


def _indented(obj, nl):
    """obj as json.dumps(obj, indent=2) writes it at the indent of nl."""
    if not obj or not isinstance(obj, (list, tuple, dict)):
        return json.dumps(obj)
    inner = nl + "  "
    values = obj.values() if isinstance(obj, dict) else obj
    if SCALARS.issuperset(map(type, values)):
        text = _scalars_encoder(inner)(obj)
        return text[0] + inner + text[1:-1] + nl + text[-1]
    if isinstance(obj, dict):
        if any(type(k) is not str for k in obj):  # json's own key conversion
            return json.dumps(obj, indent=2).replace("\n", nl)
        items = [f"{json.dumps(k)}: {_indented(v, inner)}" for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    return "[" + inner + ("," + inner).join(_indented(v, inner) for v in obj) + nl + "]"


@functools.cache  # built on the first main call, not at import
def build_parser():
    p = Parser(prog="znrank", description="Zero-noise limits of perturbed Markov chains.")
    p.add_argument("--version", action="version", version=f"znrank {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def add_io(sp):
        sp.add_argument("--graph", help="edge list file: src dst [weight], # comments")
        sp.add_argument("--matrix", help='matrix JSON file: {"n": ..., "rows": [[...]]}')
        sp.add_argument("--dangling", choices=DANGLING_POLICIES, default="self_loop",
                        help="policy for rows with no outgoing weight (default self_loop)")
        sp.add_argument("--numeric", choices=("auto", "exact", "float"), default="auto",
                        help="arithmetic: auto picks exact up to n=12 (default auto)")

    sp = sub.add_parser("classify", help="closed classes and transient states")
    add_io(sp)
    sp.add_argument("--format", choices=("json", "pretty"), default="json")

    sp = sub.add_parser("rank", help="zero-noise limit of the stationary law")
    add_io(sp)
    sp.add_argument("--q", required=True, metavar="QSPEC",
                    help="uniform | personalized=FILE | block=FILE | matrix=FILE")
    sp.add_argument("--mode", choices=("auto", "theorem3", "theorem2", "extended"), default="auto",
                    help="auto = theorem3 without transients, extended with them")
    sp.add_argument("--format", choices=("json", "pretty", "tsv"), default="json")

    sp = sub.add_parser("sweep", help="stationary laws along an eps grid")
    add_io(sp)
    sp.add_argument("--q", required=True, metavar="QSPEC")
    sp.add_argument("--eps", default=None,
                    help='grid: "a..b" log-spaced decades or a comma list (default by mode)')
    sp.add_argument("--format", choices=("tsv", "json"), default="tsv")

    sp = sub.add_parser("oracle", help="root weights and exact perturbation polynomials")
    add_io(sp)
    sp.add_argument("--q", default=None, metavar="QSPEC",
                    help="include polynomials and the exact limit for this perturbation")

    sp = sub.add_parser("adjudicate", help="compare limit methods against an oracle")
    add_io(sp)
    sp.add_argument("--q", required=True, metavar="QSPEC")
    sp.add_argument("--format", choices=("json", "pretty"), default="json")

    sp = sub.add_parser("model", help="build a chain from a model recipe")
    sp.add_argument("kind", choices=("srw", "bt", "pairwise"))
    sp.add_argument("--graph", help="edge list file")
    sp.add_argument("--weights", help="bt: node<TAB>w lines; pairwise: src<TAB>dst<TAB>w lines")
    sp.add_argument("--d", type=int, default=None, help="pairwise denominator (default max out-degree)")
    sp.add_argument("--dangling", choices=DANGLING_POLICIES, default="self_loop")
    return p


def read_text(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def numeric_mode(args, n):
    """EXACT or FLOAT from --numeric; auto is exact up to EXACT_N_DEFAULT."""
    if args.numeric == "auto":
        return EXACT if n <= EXACT_N_DEFAULT else FLOAT
    return args.numeric


def load_p(args):
    """P in the numeric mode of the command; an edge list is normalised
    in that mode, a matrix file read exactly and then converted."""
    if bool(args.graph) == bool(args.matrix):
        raise UsageError("exactly one of --graph or --matrix is required")
    if args.graph:
        g = parse_edge_list(read_text(args.graph))
        return to_stochastic(g, args.dangling, numeric_mode(args, g.states.n))
    p = load_matrix_json(read_text(args.matrix))
    return p.to_float() if numeric_mode(args, p.n) == FLOAT else p


def parse_personalization(text, p):
    """(nu, total): the masses, summed per node and scaled to integers
    (rational.common_denominator), as a dict of the nonzero ones, and their
    total; nu[i] / total is the mass of node i."""
    labels = {lab: i for i, lab in enumerate(p.states.label_list())}
    masses = [0] * p.n
    for ln, toks in data_lines(text):
        if len(toks) != 2:
            raise InputFormatError("expected `node mass`", line=ln)
        key = toks[0]
        if key in labels:
            i = labels[key]
        else:
            try:
                i = int(key)
            except ValueError:
                raise InputFormatError(f"unknown node {key!r}", line=ln) from None
            if not 0 <= i < p.n:
                raise InputFormatError(f"node index {i} out of range", line=ln)
        w = parse_rational(toks[1], line=ln)
        if w.numerator < 0:
            raise InputFormatError("negative mass", line=ln)
        masses[i] += w
    nums = common_denominator(masses)[0]
    total = sum(nums)
    if total == 0:
        raise InputFormatError("personalization vector has no mass")
    return {i: x for i, x in enumerate(nums) if x}, total


def parse_block_q(text, p):
    """Block Q over P's closed classes. Each block row becomes integer
    numerators over one denominator and one row object of Q, shared by the
    class's members, which the matrix checks."""
    part = p.partition
    if part.transient:
        raise TransientStatesPresent(
            "block perturbations are defined over closed classes only; this chain has transient states"
        )
    rows = []
    m = None
    for ln, toks in data_lines(text):
        if m is None:
            try:
                m = int(" ".join(toks))
            except ValueError:
                raise InputFormatError("first value must be the class count m", line=ln) from None
            continue
        if len(toks) != m:
            raise InputFormatError(f"expected {m} values per row", line=ln)
        rows.append(over_lcm([parse_ratio(t, line=ln) for t in toks]))
    if m is None or len(rows) != m:
        raise InputFormatError(f"expected m and then m rows, got {len(rows)} rows")
    if m != part.m:
        raise InputFormatError(f"block file has m = {m} but the chain has {part.m} closed classes")
    owner = {y: j for j, cj in enumerate(part.closed_classes) for y in cj}
    qrows, dens = [None] * p.n, [None] * p.n
    for (nums, den), ci in zip(rows, part.closed_classes):
        row = {y: nums[owner[y]] for y in range(p.n)}
        for x in ci:
            qrows[x], dens[x] = row, den
    try:
        return RowStochasticMatrix(p.states, tuple(qrows), EXACT, tuple(dens))
    except ValueError:  # it checks the class rows in order, each sign before sum: name the block row refused
        for i, (nums, den) in enumerate(rows):
            if min(nums) < 0:
                raise InputFormatError(f"negative block value in row {i}") from None
            s = sum(x * len(c) for x, c in zip(nums, part.closed_classes))
            if s != den:
                raise InputFormatError(f"block row {i} expands to row sum {Fraction(s, den)}, not 1 "
                                       "(sum_j gamma_ij |C_j| must be 1)") from None
        raise


def load_q(spec, p):
    """Q matrix from QSPEC: uniform | personalized=FILE | block=FILE |
    matrix=FILE, in P's numeric mode. block= and matrix= are checked
    exactly, then converted."""
    if spec == "uniform":
        return uniform_matrix(p.n, p.states, p.numeric_mode)
    if spec.startswith("personalized="):
        nu, total = parse_personalization(read_text(spec.split("=", 1)[1]), p)
        return RowStochasticMatrix(p.states, (nu,) * p.n, p.numeric_mode, (total,) * p.n)
    if spec.startswith("block="):
        q = parse_block_q(read_text(spec.split("=", 1)[1]), p)
    elif spec.startswith("matrix="):
        q = load_matrix_json(read_text(spec.split("=", 1)[1]), p.states)
        if q.n != p.n:
            raise InputFormatError(f"Q is {q.n} x {q.n} but the chain has {p.n} states")
    else:
        raise UsageError(f"bad --q value {spec!r}")
    return q.to_float() if p.numeric_mode == FLOAT else q


def cmd_classify(args):
    p = load_p(args)
    part = p.partition
    obj = {
        "n": p.n,
        "labels": p.states.label_list(),
        "classes": [list(c) for c in part.closed_classes],
        "transient": list(part.transient),
        "m": part.m,
    }
    if args.format == "pretty":
        labels = p.states.label_list()
        lines = [f"n = {p.n}, closed classes: {part.m}, transient states: {len(part.transient)}"]
        for k, c in enumerate(part.closed_classes):
            lines.append(f"  C{k + 1} = {{{', '.join(labels[i] for i in c)}}}")
        if part.transient:
            lines.append(f"  transient = {{{', '.join(labels[i] for i in part.transient)}}}")
        print("\n".join(lines))
    else:
        sys.stdout.write(canonical_dumps(obj))
    return 0


def cmd_rank(args):
    from znrank.zero_noise import limit_rank, report_to_json

    p = load_p(args)
    report = limit_rank(p, load_q(args.q, p), args.mode)
    if args.format == "json":
        sys.stdout.write(canonical_dumps(report_to_json(report)))
        return 0
    labels, node = report.labels, ratios_to_json(report.node_limit.nums, report.node_limit.den)
    if args.format == "pretty":
        if report.mode == "theorem2":
            print("PREDICTION (uniform class masses); contradicted by the exact oracle"
                  " when class sizes differ. See `znrank adjudicate`.")
        print(f"mode: {report.mode}")
        masses = ratios_to_json(report.class_masses.nums, report.class_masses.den)
        for k, c in enumerate(report.partition.closed_classes):
            print(f"class C{k + 1} {{{', '.join(labels[i] for i in c)}}}: mass {masses[k]}")
    for lab, v in zip(labels, node):
        print(f"{lab}\t{v}")
    return 0


def cmd_sweep(args):
    from znrank.sweep import check_eps_grid, convergence_report, epsilon_sweep, parse_eps_grid

    p = load_p(args)
    q = load_q(args.q, p)
    grid = None
    if args.eps:
        try:
            grid = check_eps_grid(parse_eps_grid(args.eps, exact=p.numeric_mode == EXACT))
        except (EpsOutOfRange, ValueError) as exc:
            raise UsageError(f"bad --eps: {exc}") from None
    result = epsilon_sweep(p, q, grid=grid)

    if args.format == "tsv":
        print("\t".join(["# eps"] + [f"pi{i}" for i in range(p.n)] + ["linf_error"]))
        for e, pi, err in zip(result.eps_grid, result.pi_table, result.errors):
            row = (number_to_json(e), *ratios_to_json(pi.nums, pi.den), number_to_json(err))
            print("\t".join(str(x) for x in row))
    else:
        obj = {
            "eps": [number_to_json(e) for e in result.eps_grid],
            "pi": [ratios_to_json(pi.nums, pi.den) for pi in result.pi_table],
            "predicted_limit": ratios_to_json(result.predicted_limit.nums, result.predicted_limit.den),
            "errors": [number_to_json(e) for e in result.errors],
            "fitted_slope": result.fitted_slope,
            "first_order": None
            if result.first_order is None
            else [number_to_json(v) for v in result.first_order],
            "report": convergence_report(result),
        }
        sys.stdout.write(canonical_dumps(obj))
    return 0


def cmd_oracle(args):
    from znrank.arborescence import all_root_polynomials, limit_from_root_polynomials, root_weight_ratios

    p = load_p(args)
    obj = {"n": p.n, "labels": p.states.label_list(), "numeric": p.numeric_mode}
    if args.q:
        if p.numeric_mode != EXACT:
            raise UsageError("the polynomial oracle needs exact arithmetic; use --numeric exact")
        q = load_q(args.q, p)
        require_unichain_union(p, q)
        polys = all_root_polynomials(p, q)
        limit, total = limit_from_root_polynomials(polys)
        # H_r(0) is P's sum of arborescence weights at r
        obj["root_weights"] = [ratios_to_json(h.nums[:1] or (0,), h.den)[0] for h in polys]
        obj["polynomials"] = [h.to_strings() for h in polys]
        obj["total_polynomial"] = total.to_strings()
        obj["min_degree"] = total.min_degree()
        obj["exact_limit"] = ratios_to_json(limit.nums, limit.den)
    else:
        obj["root_weights"] = ratios_to_json(*root_weight_ratios(p))
    sys.stdout.write(canonical_dumps(obj))
    return 0


def cmd_adjudicate(args):
    from znrank.zero_noise import adjudicate

    p = load_p(args)
    report = adjudicate(p, load_q(args.q, p))
    if args.format == "pretty":
        print(f"oracle: {report['oracle_mode']}")
        print("node\t" + "\t".join(report["labels"]))
        print("oracle\t" + "\t".join(str(x) for x in report["oracle"]))
        for name, entry in report["methods"].items():
            vals = "\t".join(str(x) for x in entry["values"])
            print(f"{name}\t{vals}")
            print(f"  max deviation {entry['max_deviation']}, verdict {entry['verdict']}")
    else:
        sys.stdout.write(canonical_dumps(report))
    return 0


def parse_node_weights(text, g):
    labels = {lab: i for i, lab in enumerate(g.states.label_list())}
    vals = [None] * g.states.n
    for ln, toks in data_lines(text):
        if len(toks) != 2:
            raise InputFormatError("expected `node weight`", line=ln)
        if toks[0] not in labels:
            raise InputFormatError(f"unknown node {toks[0]!r}", line=ln)
        vals[labels[toks[0]]] = parse_rational(toks[1], line=ln)
    missing = [lab for lab, i in labels.items() if vals[i] is None]
    if missing:
        raise InputFormatError(f"missing weights for: {', '.join(sorted(missing))}")
    return vals


def parse_pair_weights(text, labels_hint=None):
    index = {} if labels_hint is None else {lab: i for i, lab in enumerate(labels_hint)}
    order = list(labels_hint) if labels_hint is not None else []
    frozen = labels_hint is not None
    pairs = {}
    for ln, toks in data_lines(text):
        if len(toks) != 3:
            raise InputFormatError("expected `src dst weight`", line=ln)
        ids = []
        for t in toks[:2]:
            if t not in index:
                if frozen:
                    raise InputFormatError(f"unknown node {t!r}", line=ln)
                index[t] = len(order)
                order.append(t)
            ids.append(index[t])
        pairs[(ids[0], ids[1])] = parse_rational(toks[2], line=ln)
    if not order:
        raise InputFormatError("no comparisons in input")
    return order, pairs


def cmd_model(args):
    from znrank.models import (
        EdgeComparisons,
        bradley_terry_chain,
        pairwise_comparison_chain,
        simple_random_walk,
    )
    from znrank.graph import StateSpace

    if args.kind in ("srw", "bt") and not args.graph:
        raise UsageError(f"model {args.kind} requires --graph")
    if args.kind == "srw":
        g = parse_edge_list(read_text(args.graph))
        p = simple_random_walk(g, dangling=args.dangling)
    elif args.kind == "bt":
        if not args.weights:
            raise UsageError("model bt requires --weights (node<TAB>w lines)")
        g = parse_edge_list(read_text(args.graph))
        w = parse_node_weights(read_text(args.weights), g)
        p = bradley_terry_chain(g, w, dangling=args.dangling)
    else:
        if not args.weights:
            raise UsageError("model pairwise requires --weights (src<TAB>dst<TAB>w lines)")
        hint = None
        if args.graph:
            hint = parse_edge_list(read_text(args.graph)).states.label_list()
        order, pairs = parse_pair_weights(read_text(args.weights), labels_hint=hint)
        states = StateSpace(len(order), tuple(order))
        comps = EdgeComparisons(states, tuple(sorted(pairs.items())), d=args.d)
        p = pairwise_comparison_chain(comps)
    sys.stdout.write(canonical_dumps(dump_matrix_json(p)))
    return 0


COMMANDS = {
    "classify": cmd_classify,
    "rank": cmd_rank,
    "sweep": cmd_sweep,
    "oracle": cmd_oracle,
    "adjudicate": cmd_adjudicate,
    "model": cmd_model,
}


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (InputFormatError, OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except ZnrankError as exc:  # every other library error is a precondition the input fails
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
