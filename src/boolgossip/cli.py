"""Command-line front end.

Subcommands: classes, absorbing, absorb-prob, simulate, meanfield,
sweep-rules, export-dot. Graphs come from an edge-list file or a
`make:kind:n` spec (`make:regular:n:d` for random regular graphs). Rule
sets are comma-separated hex digits. Exit code 0 on success, 2 on any
validation error (one-line diagnostic on stderr). Commands that consume
randomness print the effective seed on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import absorbing as absorbing_mod
from . import andor, chain, graphs, meanfield, rules, simulate
from .errors import GossipError


def _fresh_seed() -> int:
    return int.from_bytes(os.urandom(8), "little") >> 1


def _load_graph(spec_text: str, seed: int | None) -> graphs.Graph:
    if spec_text.startswith("make:"):
        parts = spec_text.split(":")
        if len(parts) not in (3, 4):
            raise GossipError(f"bad graph spec {spec_text!r}: want make:kind:n[:d]")
        kind = parts[1]
        try:
            n = int(parts[2])
            d = int(parts[3]) if len(parts) == 4 else None
        except ValueError:
            raise GossipError(f"bad graph spec {spec_text!r}: non-integer size") from None
        return graphs.make(kind, n, seed=seed, d=d)
    try:
        with open(spec_text, "r", encoding="utf-8") as handle:
            return graphs.parse_edge_list(handle.read())
    except OSError as exc:
        raise GossipError(f"cannot read graph file {spec_text!r}: {exc}") from None


def _rule_set(args) -> rules.RuleSet:
    ops = rules.parse_rules(args.rules)
    probs = rules.parse_probs(args.probs) if args.probs else ()
    return rules.RuleSet(ops, probs)


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _cmd_classes(args, g: graphs.Graph) -> int:
    ruleset = rules.RuleSet(rules.parse_rules(args.rules))
    tag = graphs.classify_shape(g)
    analysis = chain.analyze(chain.ChainSpec(g, ruleset))
    print(f"graph: n={g.n}, {len(g.edges)} edges, shape {tag.value}")
    if ruleset.op_set == rules.AND_OR:
        predicted = andor.predict_chi(g)
        verdict = "MATCH" if predicted == analysis.class_count else "MISMATCH"
        print(
            f"chi={predicted} (predicted) chi={analysis.class_count} "
            f"(brute force) {verdict}"
        )
    else:
        print(
            f"chi={analysis.class_count} (brute force); no closed-form "
            f"prediction for rules {ruleset}"
        )
    parts = analysis.classes()
    shown = parts[:30]
    for idx, members in enumerate(shown, start=1):
        sample = chain.format_state(min(members), g.n)
        print(f"class {idx}: {len(members)} states, e.g. [{sample}]")
    if len(parts) > len(shown):
        print(f"... {len(parts) - len(shown)} more classes")
    return 0


def _cmd_absorbing(args, g: graphs.Graph) -> int:
    ruleset = rules.RuleSet(rules.parse_rules(args.rules))
    verdict, reason = absorbing_mod.oracle_reason(g, ruleset.op_set)
    analysis = chain.analyze(chain.ChainSpec(g, ruleset))
    agrees = "agrees" if analysis.is_absorbing_chain == verdict else "DISAGREES"
    word = "ABSORBING" if verdict else "NOT ABSORBING"
    print(f"{word} ({reason}); brute force {agrees}")
    states = sorted(analysis.absorbing_states)
    if len(states) <= 64:
        listing = " ".join(chain.format_state(s, g.n) for s in states)
        print(f"absorbing states ({len(states)}): {listing}")
    else:
        print(f"absorbing states: {len(states)}")
    return 0


def _cmd_absorb_prob(args, g: graphs.Graph) -> int:
    ruleset = _rule_set(args)
    spec = chain.ChainSpec(g, ruleset)
    if args.start is None:
        raise GossipError("absorb-prob needs --start")
    start = chain.parse_state(args.start, g.n)
    dist = chain.absorption_probabilities(spec, start)
    lines = [f"start: {chain.format_state(start, g.n)}"]
    for s in sorted(dist):
        lines.append(f"P[{chain.format_state(s, g.n)}] = {dist[s]!r}")
    lines.append(f"sum = {sum(dist.values())!r}")
    _write_out("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_simulate(args, g: graphs.Graph) -> int:
    if args.start is None and args.delta0 is None:
        raise GossipError("simulate needs --start or --delta0")
    ruleset = _rule_set(args)
    spec = chain.ChainSpec(g, ruleset)
    start = chain.parse_state(args.start, g.n) if args.start is not None else None
    config = simulate.SimConfig(
        spec=spec,
        horizon=args.horizon,
        rounds=args.rounds,
        seed=args.seed,
        start=start,
        delta0=args.delta0,
        sample_every=args.sample_every,
    )
    result = simulate.run(config)
    _write_out(meanfield.to_csv([result.density_mean]), args.out)
    print(f"consensus fraction: {result.consensus_fraction}", file=sys.stderr)
    top = sorted(result.absorption_counts.items(), key=lambda kv: -kv[1])[:8]
    for word, count in top:
        print(
            f"absorbed at [{chain.format_state(word, g.n)}]: {count}",
            file=sys.stderr,
        )
    return 0


def _cmd_meanfield(args) -> int:
    if args.n is None:
        raise GossipError("meanfield needs --n")
    params = meanfield.MeanFieldParams(args.n, args.p_star, args.delta0)
    closed = meanfield.closed_form_trajectory(params, args.horizon)
    recur = meanfield.recursion(params, args.horizon)
    _write_out(meanfield.to_csv([closed, recur]), args.out)
    return 0


def _cmd_sweep_rules(args, g: graphs.Graph) -> int:
    brute = chain.sweep_absorbing_verdicts(g)
    mismatches = 0
    lines = ["rules,oracle,brute,match"]
    for mask in range(1, 1 << 16):
        ops = rules.mask_ops(mask)
        oracle = absorbing_mod.is_absorbing_chain_oracle(g, ops)
        agree = oracle == bool(brute[mask])
        if not agree:
            mismatches += 1
        lines.append(
            f"{rules.format_rules(sorted(ops))},{int(oracle)},{int(brute[mask])},"
            f"{int(agree)}"
        )
    _write_out("\n".join(lines) + "\n", args.out)
    print(f"65535 rule sets checked, mismatches: {mismatches}", file=sys.stderr)
    return 0 if mismatches == 0 else 2


def _cmd_export_dot(args, g: graphs.Graph) -> int:
    if args.rules:
        ruleset = rules.RuleSet(rules.parse_rules(args.rules))
        _write_out(chain.export_dot(chain.ChainSpec(g, ruleset)), args.out)
    else:
        _write_out(graphs.to_dot(g), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boolgossip",
        description="Exact analysis and simulation of Boolean gossip dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, handler, with_rules=True, with_probs=True, needs_rules=False):
        p.set_defaults(handler=handler, needs_rules=needs_rules)
        p.add_argument(
            "--graph",
            required=True,
            help="edge-list file or make:kind:n (make:regular:n:d)",
        )
        if with_rules:
            p.add_argument("--rules", help="comma-separated hex digits, e.g. 1,7")
        if with_probs:
            p.add_argument("--probs", help="comma-separated probabilities")
        p.add_argument("--seed", type=int, help="RNG seed (printed if generated)")
        p.add_argument("--out", help="write output to this file instead of stdout")

    p = sub.add_parser("classes", help="predicted vs brute-force communication classes")
    add_common(p, _cmd_classes, with_probs=False)
    p.set_defaults(rules="1,7")

    p = sub.add_parser("absorbing", help="closed-form vs brute-force absorbing verdict")
    add_common(p, _cmd_absorbing, with_probs=False, needs_rules=True)

    p = sub.add_parser("absorb-prob", help="absorption distribution from a start state")
    add_common(p, _cmd_absorb_prob, needs_rules=True)
    p.add_argument("--start", help="start state bitstring, node 1 leftmost")

    p = sub.add_parser("simulate", help="Monte Carlo sample paths, CSV density output")
    add_common(p, _cmd_simulate, needs_rules=True)
    p.add_argument("--start", help="start state bitstring, node 1 leftmost")
    p.add_argument("--delta0", type=float, help="i.i.d. Bernoulli initial density")
    p.add_argument("--horizon", type=int, required=True, help="steps per round")
    p.add_argument("--rounds", type=int, default=1, help="independent rounds")
    p.add_argument("--sample-every", type=int, help="density sample interval")

    p = sub.add_parser("meanfield", help="closed-form and recursion density CSV")
    p.add_argument("--n", type=int, help="node count")
    p.add_argument("--p-star", type=float, required=True, help="probability of OR")
    p.add_argument("--delta0", type=float, required=True, help="initial density")
    p.add_argument("--horizon", type=int, required=True, help="steps")
    p.add_argument("--out", help="write output to this file instead of stdout")

    p = sub.add_parser("sweep-rules", help="oracle vs brute force over all rule sets")
    add_common(p, _cmd_sweep_rules, with_rules=False, with_probs=False)

    p = sub.add_parser("export-dot", help="DOT diagram of the graph or its chain")
    add_common(p, _cmd_export_dot, with_probs=False)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "meanfield":
            return _cmd_meanfield(args)
        if args.command == "simulate" or args.graph.startswith("make:regular"):
            if args.seed is None:
                args.seed = _fresh_seed()
            print(f"seed: {args.seed}", file=sys.stderr)
        g = _load_graph(args.graph, args.seed)
        if args.needs_rules and not args.rules:
            raise GossipError(f"{args.command} needs --rules")
        return args.handler(args, g)
    except (GossipError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
