"""Linking unit mentions in text to KB units.

A candidate's confidence is prior x mention-similarity x context-score:
the prior is the unit's frequency, mention similarity is normalized
Levenshtein against the unit's surface forms, and the context score
aggregates cosine similarity between context tokens and the unit's
keywords under a deterministic trigram-hash embedder.
"""

from dimkit import TrigramHashEmbedding, link, load_kb
from dimkit.cli import packaged_data

kb = load_kb(packaged_data("units.tsv"))
emb = TrigramHashEmbedding()


def show(surface, context=""):
    print(f"\nlink {surface!r}" + (f" | context {context!r}" if context else ""))
    for c in link(kb, surface, context, emb, threshold=0.5)[:4]:
        print(f"  {c.unit_id:16} prior={c.prior:.3f} mention={c.p_mention:.3f} "
              f"context={c.p_context:.3f} score={c.score:.5f}")


# A noisy surface form still finds the right unit.
show("dyne/cm")

# "degree" is genuinely ambiguous; the context decides.
show("degree", "the water temperature today")
show("degree", "my eyeglass prescription")

# Rare units lose to frequent fuzzy rivals without context ("poundal"
# looks a lot like "pounds") and win it back when the context carries
# their keywords.
show("poundal")
show("poundal", "the lab recorded a force")

# Chinese surfaces work the same way.
show("千克")
