import pytest

from lexbeam import BOS, EOS, Vocabulary
from lexbeam.errors import UnknownTokenError


def test_ids_are_dense_and_sentinels_reserved():
    v = Vocabulary(["dog", "cat"])
    assert v.tokens == (BOS, EOS, "dog", "cat")
    assert [v.id(t) for t in v.tokens] == [0, 1, 2, 3]
    assert v.bos_id != v.eos_id


def test_lookup_roundtrip():
    v = Vocabulary(["a", "b"])
    assert v.ids(["a", "b"]) == (2, 3)
    assert v.words([2, 3]) == ("a", "b")


def test_unknown_token_raises():
    v = Vocabulary(["a"])
    with pytest.raises(UnknownTokenError):
        v.id("zebra")
    with pytest.raises(UnknownTokenError):
        v.token(99)


def test_duplicate_tokens_rejected():
    with pytest.raises(ValueError):
        Vocabulary(["a", "a"])
    with pytest.raises(ValueError):
        Vocabulary([BOS])


def test_strip_sentinels():
    v = Vocabulary(["a"])
    assert v.strip_sentinels((0, 2, 1)) == (2,)
    assert v.content_tokens == ("a",)
