"""Token table with dense ids and reserved sequence sentinels."""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import DuplicateTokenError, MalformedVocabularyError, UnknownTokenError

BOS = "<s>"
EOS = "</s>"


class Vocabulary:
    """An ordered token table.

    Ids are dense integers starting at 0. The sequence-start and
    sequence-end sentinels are always present and occupy ids 0 and 1;
    content tokens follow in the order given.

    Parameters
    ----------
    words:
        Content token strings, unique, excluding the sentinels.
    """

    __slots__ = ("tokens", "bos_id", "eos_id", "_index")

    def __init__(self, words: Iterable[str]):
        tokens = [BOS, EOS]
        tokens.extend(words)
        index = dict(zip(tokens, range(len(tokens))))
        if len(index) < len(tokens):
            seen: set[str] = set()
            for tok in tokens:
                if tok in seen:
                    raise DuplicateTokenError(f"duplicate token {tok!r}")
                seen.add(tok)
        self.tokens: tuple[str, ...] = tuple(tokens)
        self.bos_id = 0
        self.eos_id = 1
        self._index = index

    @classmethod
    def from_json(cls, words: object) -> "Vocabulary":
        """A vocabulary from a JSON array of content-token strings."""
        if not isinstance(words, list) or not set(map(type, words)) <= {str}:
            raise MalformedVocabularyError(f"vocab must be a list of strings, got {words!r:.80}")
        return cls(words)

    def __len__(self) -> int:
        return len(self.tokens)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Vocabulary) and self.tokens == other.tokens

    def __repr__(self) -> str:
        return f"Vocabulary({len(self)} tokens)"

    def id(self, token: str) -> int:
        try:
            return self._index[token]
        except KeyError:
            raise UnknownTokenError(f"token {token!r} not in vocabulary") from None

    def ids(self, tokens: Iterable[str]) -> tuple[int, ...]:
        return tuple(self.id(t) for t in tokens)

    def token(self, token_id: int) -> str:
        if not 0 <= token_id < len(self.tokens):
            raise UnknownTokenError(f"token id {token_id} out of range")
        return self.tokens[token_id]

    def words(self, token_ids: Iterable[int]) -> tuple[str, ...]:
        return tuple(self.token(i) for i in token_ids)

    @property
    def content_tokens(self) -> tuple[str, ...]:
        """Tokens excluding the two sentinels, in id order."""
        return self.tokens[2:]

    def strip_sentinels(self, token_ids: Sequence[int]) -> tuple[int, ...]:
        """Drop start/end sentinel ids, e.g. to render a caption."""
        return tuple(i for i in token_ids if i not in (self.bos_id, self.eos_id))
