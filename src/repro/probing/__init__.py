"""KLM probing (§3.2, §5)."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.probing.klm": ("KLM", "KLM_REQUESTS_PER_SECOND_PER_CORE", "ProbeOutcome"),
    },
)
