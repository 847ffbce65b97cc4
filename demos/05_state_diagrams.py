"""DOT diagrams of small induced chains, one color per class.

Renders the full 16-state chain of the 4-cycle and of the paw under
AND/OR rules. Absorbing states get a double circle; every communication
class gets its own fill color, so the five-versus-three class structure
of the two graphs is visible at a glance. Render the output with
graphviz, e.g. `dot -Tpng chain_cycle4.dot -o chain_cycle4.png`.
"""

from boolgossip import chain, graphs, rules

AND_OR = rules.RuleSet((1, 7))

for name, g in (
    ("cycle4", graphs.make("cycle", 4)),
    ("paw", graphs.parse_edge_list("1 2\n2 3\n2 4\n3 4")),
):
    spec = chain.ChainSpec(g, AND_OR)
    analysis = chain.analyze(spec)
    text = chain.export_dot(spec)
    out = f"chain_{name}.dot"
    with open(out, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"{name}: {analysis.class_count} classes, "
          f"{len(analysis.absorbing_states)} absorbing states -> {out}")

# The underlying graphs themselves, for side-by-side rendering.
for name, g in (
    ("cycle4", graphs.make("cycle", 4)),
    ("paw", graphs.parse_edge_list("1 2\n2 3\n2 4\n3 4")),
):
    out = f"graph_{name}.dot"
    with open(out, "w", encoding="utf-8") as handle:
        handle.write(graphs.to_dot(g))
    print(f"wrote {out}")

# A transition-matrix CSV of the same cycle chain, for spreadsheet use.
spec = chain.ChainSpec(graphs.make("cycle", 4), AND_OR)
with open("chain_cycle4.csv", "w", encoding="utf-8") as handle:
    handle.write(chain.export_csv(spec))
print("wrote chain_cycle4.csv")
