"""Text-completion client adapters.

No vendor client is baked in. Pipelines take any object with a
``complete(prompt) -> str`` method; tests and desk-scale runs use the
deterministic clients here. Callers that issue requests concurrently must
bound in-flight calls themselves; the shipped clients are synchronous.
"""

from __future__ import annotations

from importlib import resources
from typing import Iterable, Protocol, runtime_checkable


# How many times a request is retried after an LLMTransportError.
TRANSPORT_RETRIES = 1


def prompt_file(name: str) -> str:
    """A prompt template or exemplar file shipped in ``eventlink.prompts``."""
    return resources.files("eventlink.prompts").joinpath(name).read_text(encoding="utf-8")


class LLMTransportError(RuntimeError):
    """A retryable transport-level client failure."""


@runtime_checkable
class TextCompletionClient(Protocol):
    def complete(self, prompt: str) -> str: ...


class ScriptedClient:
    """Replays canned completions in order; raises when the script runs dry."""

    def __init__(self, completions: Iterable[str]):
        self._completions = list(completions)
        self._cursor = 0

    @property
    def calls(self) -> int:
        return self._cursor

    def complete(self, prompt: str) -> str:
        if self._cursor >= len(self._completions):
            raise LLMTransportError("scripted client has no completions left")
        completion = self._completions[self._cursor]
        self._cursor += 1
        return completion

