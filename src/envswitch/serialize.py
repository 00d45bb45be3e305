"""Named-tensor text format shared by every model in the engine.

Layout (one tensor after another, names sorted for reproducibility)::

    tensors <count>
    tensor <name> <ndim> <dim0> <dim1> ...
    <value> <value> ...          # row-major, repr() floats, one line

``repr`` round-trips float64 exactly, so save/load is byte-stable and
loss-free.
"""

import math

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
    """The mapping ``dump_tensors`` wrote.  A header count other than the
    tensors present, a malformed or repeated ``tensor`` line, or a value
    line other than its shape's size of finite floats raises ValueError,
    naming the line."""
    lines = [(n, ln.split()) for n, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    head = lines[0][1] if lines else []
    if len(head) != 2 or head[0] != "tensors" or not head[1].isdigit():
        raise ValueError("not a tensor file: missing 'tensors <count>' header")
    count = int(head[1])
    if len(lines) != 1 + 2 * count:
        raise ValueError(f"the header counts {count} tensors, but {len(lines) - 1} lines follow it")
    out = {}
    for (n, head), (n_values, words) in zip(lines[1::2], lines[2::2]):
        if (head[0] != "tensor" or not "".join(head[2:]).isdigit()
                or len(head) != 3 + int(head[2]) or head[1] in out):
            raise ValueError(f"line {n}: expected a new 'tensor <name> <ndim> <dims>'")
        shape = tuple(int(d) for d in head[3:])
        size = math.prod(shape)
        try:
            values = [float(v) for v in words]
        except ValueError as err:
            raise ValueError(f"line {n_values}: {err}") from None
        if len(values) != size:
            raise ValueError(f"line {n_values}: tensor {head[1]} needs {size} values, got {len(values)}")
        if not all(map(math.isfinite, values)):
            raise ValueError(f"line {n_values}: tensor {head[1]} holds a non-finite value")
        out[head[1]] = np.array(values, dtype=float).reshape(shape)
    return out


def fmt(value: float) -> str:
    """Canonical float formatting used across every text artifact."""
    return repr(float(value))
