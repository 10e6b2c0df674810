"""Argument-aware event linking toolkit.

Retrieve-and-rerank linking of event mentions to a knowledge base, with a
learned out-of-KB option and synthetic negative-data generation driven by
controlled manipulation of tagged event arguments.
"""

from .extraction import Argument, EventQuery, Span, TaggedQuery
from .kb import NIL, KBEntry, KnowledgeBase, load_kb
from .retrieval import CandidateSet, DenseIndex
from .rerank import LinkDecision

__version__ = "0.1.0"

__all__ = [
    "Argument",
    "CandidateSet",
    "DenseIndex",
    "EventQuery",
    "KBEntry",
    "KnowledgeBase",
    "LinkDecision",
    "NIL",
    "Span",
    "TaggedQuery",
    "load_kb",
    "__version__",
]
