"""Hand-built LCTM model files for loader tests.

The bytes are packed here field by field from the file layout, not by
``save_model``, so a file can hold trees that no fit would grow.
"""

import struct

_NAMES = b"size_px,mean_intensity,center_distance_px"

# Trees a prediction cannot walk as a tree, each as the children of its
# nodes: node i splits to the (left, right) pair at i, or is a leaf (None).
UNWALKABLE_TREES = {
    # Every split sends both sides to the next node, so the 22 nodes stand
    # for a tree of 2**21 leaves.
    "chain-22": [(i + 1, i + 1) for i in range(21)] + [None],
    # Node 0 splits to nodes 1 and 3; node 2 is the child of no split.
    "orphan-node-2": [(1, 3), None, None, None],
}


def one_tree_model(children):
    """The bytes of a one-tree model whose splits all test feature 0 at 0.5."""
    out = b"LCTM" + struct.pack("<IIqIIIH", 1, 1, 0, 5, 12, 10, len(_NAMES)) + _NAMES
    out += struct.pack("<I", len(children))
    for pair in children:
        out += struct.pack("<bBdii", 0, 0, 0.5, *pair) if pair else struct.pack("<bII", 1, 3, 2)
    return out
