"""Bootstrapping retrieval of quantity-bearing triplets.

Starting from the surface forms of the most frequent units, the mention
set and the predicate set grow each other: mentions find predicates,
predicates below the quantity-ratio threshold are dropped, and the
surviving predicates' objects contribute new unit mentions.
"""

import random

from dimkit import bootstrap_retrieve, load_kb, load_triplets, render_triplet_sentence
from dimkit.cli import packaged_data

kb = load_kb(packaged_data("units.tsv"))
store = load_triplets(packaged_data("triplets.tsv"))
print(f"store: {len(store)} triplets, predicates: {store.all_predicates()}")

for iterations in (0, 1, 5):
    result = bootstrap_retrieve(store, kb, tau=0.8, iterations=iterations, seed_unit_count=10)
    print(f"\niterations={iterations}: retrieved {len(result.triplets)} triplets")
    print("  surviving predicates:", sorted(result.predicates) or "(none yet)")
    print("  mention set size:", len(result.mentions))

# Sparse predicates ("capacity" at 7/10 quantities) and noisy ones
# ("product_code", whose objects merely contain a unit-like letter) are
# filtered out; their quantity-bearing objects remain reachable through
# the mention set.

result = bootstrap_retrieve(store, kb, 0.8, 5, 10)
print("\nsample retrieved triplets rendered as sentences:")
rng = random.Random(0)
for t in result.triplets[:5]:
    print("  ", render_triplet_sentence(t, rng=rng))
