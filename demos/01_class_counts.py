"""Communication classes of the AND/OR gossip chain, shape by shape.

The number of communication classes of the induced chain is a function of
the graph shape alone: 2n on a line, n//2 + 3 on an even cycle, n//2 + 2
on an odd one, five on any other graph without an odd cycle, and three
once an odd cycle appears. This script rebuilds each chain explicitly,
counts classes by strongly connected components, and compares.
"""

from boolgossip import andor, chain, graphs, rules

AND_OR = rules.RuleSet((rules.OP_AND, rules.OP_OR))

samples = [
    ("line(4)", graphs.make("line", 4)),
    ("line(7)", graphs.make("line", 7)),
    ("cycle(4)", graphs.make("cycle", 4)),
    ("cycle(5)", graphs.make("cycle", 5)),
    ("cycle(8)", graphs.make("cycle", 8)),
    ("star(6)", graphs.make("star", 6)),
    ("spider tree", graphs.parse_edge_list("1 2\n2 3\n2 4\n4 5\n4 6")),
    ("theta graph", graphs.parse_edge_list("1 2\n2 3\n3 4\n4 1\n2 5\n5 4")),
    ("paw", graphs.parse_edge_list("1 2\n2 3\n2 4\n3 4")),
    ("complete(4)", graphs.make("complete", 4)),
]

print(f"{'graph':<12} {'shape':<18} {'predicted':>9} {'brute':>6}")
for name, g in samples:
    tag = graphs.classify_shape(g)
    predicted = andor.predict_chi(g)
    brute = chain.analyze(chain.ChainSpec(g, AND_OR)).class_count
    flag = "" if predicted == brute else "  MISMATCH"
    print(f"{name:<12} {tag.value:<18} {predicted:>9} {brute:>6}{flag}")

# The predicted partition is exact, not just the count: on the star the
# five classes are the two consensus states, the two proper colorings,
# and everything else.
print()
star = graphs.make("star", 4)
prediction = andor.predict_classes(star)
for label, members in zip(prediction.labels, prediction.classes):
    sample = chain.format_state(min(members), star.n)
    print(f"star(4) class {label!r}: {len(members)} states, e.g. [{sample}]")
