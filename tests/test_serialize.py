import numpy as np
import pytest

from envswitch.serialize import dump_tensors, parse_tensors


def tensors():
    return {"a.scalar": np.float64(-2.5), "b.vec": np.arange(3.0),
            "c.mat": np.arange(6.0).reshape(2, 3) / 7.0}


def test_roundtrip_is_exact():
    back = parse_tensors(dump_tensors(tensors()))
    assert sorted(back) == sorted(tensors())
    for name, want in tensors().items():
        assert back[name].shape == np.shape(want)
        assert back[name].tobytes() == np.asarray(want).tobytes()


def edited(edit):
    lines = dump_tensors(tensors()).splitlines()
    edit(lines)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("edit, message", [
    (lambda ls: ls.__delitem__(slice(5, None)), "the header counts 3 tensors, but 4 lines"),
    (lambda ls: ls.__delitem__(slice(6, None)), "the header counts 3 tensors, but 5 lines"),
    (lambda ls: ls.__setitem__(0, "tensors 4"), "the header counts 4 tensors, but 6 lines"),
    (lambda ls: ls.__setitem__(0, "tensors 2"), "the header counts 2 tensors, but 6 lines"),
    (lambda ls: ls.__setitem__(0, "tensors x"), "missing 'tensors <count>' header"),
    (lambda ls: ls.__setitem__(0, "tensor 3"), "missing 'tensors <count>' header"),
    (lambda ls: ls.__setitem__(0, "tensors 3 4"), "missing 'tensors <count>' header"),
    (lambda ls: ls.__setitem__(3, "tensor b.vec 1"), "line 4: expected a new 'tensor"),
    (lambda ls: ls.__setitem__(3, "tensor b.vec 1 -3"), "line 4: expected a new 'tensor"),
    (lambda ls: ls.__setitem__(3, "tensor b.vec"), "line 4: expected a new 'tensor"),
    (lambda ls: ls.__setitem__(3, "tensors b.vec 1 3"), "line 4: expected a new 'tensor"),
    (lambda ls: ls.__setitem__(3, "tensor a.scalar 0"), "line 4: expected a new 'tensor"),
    (lambda ls: ls.__setitem__(4, "0.0 1.0"), "line 5: tensor b.vec needs 3 values, got 2"),
    (lambda ls: ls.__setitem__(4, "0.0 1.0 x"), "line 5: could not convert"),
    (lambda ls: ls.__setitem__(4, "0.0 nan 2.0"), "line 5: tensor b.vec holds a non-finite"),
    (lambda ls: ls.__setitem__(2, "inf"), "line 3: tensor a.scalar holds a non-finite"),
    (lambda ls: ls.__setitem__(6, ls[6].replace("0.0", "-inf")), "line 7: tensor c.mat holds"),
])
def test_malformed_file_raises_value_error(edit, message):
    with pytest.raises(ValueError, match=message):
        parse_tensors(edited(edit))


def test_empty_text_raises_value_error():
    with pytest.raises(ValueError, match="not a tensor file"):
        parse_tensors("")
