"""Text-completion client adapters.

No vendor client is baked in. Pipelines take any object with a
``complete(prompt) -> str`` method; tests and desk-scale runs use the
deterministic clients here. Pipelines send every request through
``complete(client, prompt)``, the one place that retries a transport
failure. Callers that issue requests concurrently must bound in-flight
calls themselves; the shipped clients are synchronous.
"""

from __future__ import annotations

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

    @property
    def calls(self) -> int:
        return self._cursor

    def complete(self, prompt: str) -> str:
        if self._cursor >= len(self._completions):
            raise ClientExhausted("scripted client has no completions left")
        completion = self._completions[self._cursor]
        self._cursor += 1
        return completion

