"""Text-completion client adapters.

No vendor client is baked in. Pipelines take any object with a
``complete(prompt) -> str`` method; tests and desk-scale runs use the
deterministic clients here. Pipelines send every request through
``complete(client, prompt)``, the one place that retries a transport
failure. Callers that issue requests concurrently must bound in-flight
calls themselves; the shipped clients are synchronous.

``StorytellerMock`` stands in for the rewrite client: it swaps the tagged
details of the prompt's final passage for fictional ones drawn from a
vocabulary disjoint from the toy corpus, deterministically in (seed, prompt).
"""

from __future__ import annotations

import hashlib
import re
from functools import cache
from importlib import resources
from typing import Iterable, Protocol


# How many times a request is retried after an LLMTransportError.
TRANSPORT_RETRIES = 1


@cache
def prompt_file(name: str) -> str:
    """A prompt template or exemplar file shipped in ``eventlink.prompts``, read once."""
    return resources.files("eventlink.prompts").joinpath(name).read_text(encoding="utf-8")


class LLMTransportError(RuntimeError):
    """A retryable transport-level client failure."""


class ClientExhausted(RuntimeError):
    """The client has no completions left; retrying cannot help."""


class TextCompletionClient(Protocol):
    def complete(self, prompt: str) -> str: ...


def complete(client: TextCompletionClient, prompt: str) -> tuple[str | None, str | None]:
    """Send ``prompt``, retrying an LLMTransportError up to ``TRANSPORT_RETRIES`` times.

    Returns ``(completion, None)`` on success, or ``(None, message)`` with
    the message of the last failure when every attempt failed. A
    ClientExhausted error is not retried: it propagates at once.
    """
    failure = None
    for _ in range(TRANSPORT_RETRIES + 1):
        try:
            return client.complete(prompt), None
        except LLMTransportError as exc:
            failure = str(exc)
    return None, failure


class ScriptedClient:
    """Replays canned completions in order; raises ClientExhausted when the script runs dry."""

    def __init__(self, completions: Iterable[str]):
        self._completions = list(completions)
        self._cursor = 0

    def complete(self, prompt: str) -> str:
        if self._cursor >= len(self._completions):
            raise ClientExhausted("scripted client has no completions left")
        completion = self._completions[self._cursor]
        self._cursor += 1
        return completion


# Replacement vocabulary for the storyteller mock; disjoint from the toy
# corpus's names (``eventlink.toy``) by construction (checked in tests).
FICTIONAL_NAMES = (
    "Braxxon", "Quorath", "Zenthia", "Mirelda", "Ostravane", "Kelvorn",
    "Xanthippe", "Drovak", "Ulrezaj", "Phantor", "Greywall", "Ninevra",
    "Coriolan", "Vantessa", "Hexmoor",
)


def token_hash(token: str) -> int:
    """Stable 64-bit hash of a token string (process- and run-independent)."""
    return int.from_bytes(hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest(), "big")


_PASSAGE_ARG_RE = re.compile(r"Example 3:\nPassage: (?P<p>.*)\n\nAdditional information")
_PASSAGE_PLAIN_RE = re.compile(r"Example 3:\nPassage: (?P<p>.*)\n\nNew passage:")
_SPAN_RE = re.compile(r"<(\w+)> (.*?) </\1>")


class StorytellerMock:
    """Deterministic rewrite client for negative-generation prompts."""

    def __init__(self, seed: int = 0):
        self.seed = seed

    def _replacement(self, original: str) -> str:
        h = token_hash(f"{self.seed}:{original}")
        if original.replace(" ", "").isdigit():
            return str(2100 + h % 900)
        return FICTIONAL_NAMES[h % len(FICTIONAL_NAMES)]

    def _swap_tagged(self, passage: str) -> str:
        def swap(match: re.Match) -> str:
            tag, inner = match.group(1), match.group(2)
            if tag == "mention":
                return match.group(0)
            return f"<{tag}> {self._replacement(inner)} </{tag}>"

        return _SPAN_RE.sub(swap, passage)

    def _swap_plain(self, passage: str) -> str:
        out = []
        for position, token in enumerate(passage.split()):
            if token.startswith("<"):
                out.append(token)
            elif token.isdigit():
                out.append(self._replacement(token))
            elif position > 0 and token[:1].isupper():
                out.append(self._replacement(token))
            else:
                out.append(token)
        return " ".join(out)

    def complete(self, prompt: str) -> str:
        arg_match = _PASSAGE_ARG_RE.search(prompt)
        if arg_match:
            swapped = self._swap_tagged(arg_match.group("p"))
            return (
                "Plan 1: Replace the tagged participants, place, and time with "
                "invented ones, keeping every role type.\n"
                f"Following Plan 1, we can generate this passage after Step 1: {swapped}\n"
                "Plan 2: Keep the surrounding wording; the invented details already "
                "read smoothly.\n"
                f"Following Plan 2, we can generate this passage after Step 2: {swapped}"
            )
        plain_match = _PASSAGE_PLAIN_RE.search(prompt)
        if plain_match:
            swapped = self._swap_plain(plain_match.group("p"))
            return f"New passage: {swapped}"
        raise ValueError("prompt carries no recognizable passage")
