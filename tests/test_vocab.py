import pytest

from lexbeam import BOS, EOS, Vocabulary
from lexbeam.errors import DuplicateTokenError, MalformedVocabularyError, UnknownTokenError


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


@pytest.mark.parametrize(
    "words, repeat",
    [(["a", "b", "a", "b"], "'a'"), (["a", EOS], "'</s>'"), (["x", BOS, "x"], "'<s>'"), (["b", "a", "a"], "'a'")],
)
def test_the_first_repeat_is_named(words, repeat):
    with pytest.raises(DuplicateTokenError) as info:
        Vocabulary(words)
    assert str(info.value) == f"duplicate token {repeat}"


@pytest.mark.parametrize("words", ["ab", ["a", None], [1], ("a",), ["a", ["b"]]])
def test_from_json_takes_a_list_of_strings_only(words):
    with pytest.raises(MalformedVocabularyError):
        Vocabulary.from_json(words)
    assert Vocabulary.from_json(["a", "b"]).tokens == (BOS, EOS, "a", "b")
