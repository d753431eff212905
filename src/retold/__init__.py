"""retold: regenerate and restyle story tellings from symbolic timelines.

The pipeline runs in four stages: parse a story encoding into a timeline
graph (``story``), transform propositions into deep-syntactic dependency
trees (``transform``), optionally restyle them with a voice model
(``style``), and linearize to text (``realize``). The ``metrics`` module
scores generated tellings against references with stemmed word-level edit
distance and BLEU.
"""

from .dsynt import Document, DSyntNode, serialize, validate_tree
from .lexicon import Lexicon, default_lexicon
from .metrics import EvalPair, EvalReport, bleu, corpus_report, levenshtein, tokenize_and_stem
from .realize import realize_document, realize_sentence
from .story import StoryGraph, parse_story, serialize_story, validate_story
from .style import BUILTIN_VOICES, Telling, VoiceModel, apply_voice, load_voice, tell
from .transform import transform_story

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_VOICES", "Document", "DSyntNode", "EvalPair", "EvalReport",
    "Lexicon", "StoryGraph", "Telling", "VoiceModel", "apply_voice", "bleu",
    "corpus_report", "default_lexicon", "levenshtein", "load_voice",
    "parse_story", "realize_document", "realize_sentence", "serialize",
    "serialize_story", "tell", "tokenize_and_stem", "transform_story",
    "validate_story", "validate_tree",
]
