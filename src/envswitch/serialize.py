"""Named-tensor text format shared by every model in the engine.

Layout (one tensor after another, names sorted for reproducibility)::

    tensors <count>
    tensor <name> <ndim> <dim0> <dim1> ...
    <value> <value> ...          # row-major, repr() floats, one line

``repr`` round-trips float64 exactly, so save/load is byte-stable and
loss-free.
"""

import numpy as np


def dump_tensors(mapping: dict) -> str:
    names = sorted(mapping)
    lines = [f"tensors {len(names)}"]
    for name in names:
        arr = np.asarray(mapping[name], dtype=float)
        dims = " ".join(str(d) for d in arr.shape)
        lines.append(f"tensor {name} {arr.ndim} {dims}".rstrip())
        lines.append(" ".join(repr(float(v)) for v in arr.ravel()))
    return "\n".join(lines) + "\n"


def parse_tensors(text: str) -> dict:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("tensors "):
        raise ValueError("not a tensor file: missing 'tensors' header")
    count = int(lines[0].split()[1])
    out, i = {}, 1
    for _ in range(count):
        head = lines[i].split()
        if head[0] != "tensor":
            raise ValueError(f"expected 'tensor' line, got {lines[i]!r}")
        name, ndim = head[1], int(head[2])
        shape = tuple(int(d) for d in head[3:3 + ndim])
        values = np.array([float(v) for v in lines[i + 1].split()], dtype=float)
        out[name] = values.reshape(shape) if ndim else values.reshape(())
        i += 2
    return out


def fmt(value: float) -> str:
    """Canonical float formatting used across every text artifact."""
    return repr(float(value))
