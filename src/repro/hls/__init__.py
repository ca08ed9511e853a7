"""Commercial-HLS-tool proxy (heuristic additive-delay baseline flow)."""

from .tool import CommercialHLSProxy

__all__ = ["CommercialHLSProxy"]
