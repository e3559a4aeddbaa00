"""Interaction-conditioned diffusion at desk scale.

Subpackages:
  numerics  - tensor autodiff core, parameter store, checkpoints
  geometry  - bounding-box algebra and Fourier coordinate encodings
  scenes    - scene records, generator, renderer, oracle detector, dataset I/O
  intoken   - interaction tokenizer (labels + boxes -> one token block)
  inbedding - instance / role embeddings and padding
  informer  - transformer blocks with gated interaction self-attention
  diffusion - noise schedule, UNet denoiser, training loop, sampler
  evaluation - mAP protocol, kernel-MMD metric
  cli       - command-line entry points
"""

__version__ = "0.1.0"
