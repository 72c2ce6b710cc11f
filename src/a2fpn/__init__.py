"""Attention-aggregation feature pyramid operators on numpy arrays.

The package is organized as layered pure functions, each with an explicit
hand-derived backward pass:

* ``tensor_core``: softmax, normalizations, activations, batch sums
* ``nn_ops``: conv2d, pooling, bilinear resize
* ``mgc``: multi-level global context (collect / reason / distribute)
* ``fusion``: content-aware upsampling and downsampling fusion
* ``pyramid``: whole-neck assembly (fpn / pafpn / a2fpn / a2fpn-lite)
* ``verify``: finite-difference gradient checks and loop-oracle suites
* ``analysis``: parameter and FLOP audits of each neck variant
* ``cli``: command-line front end over all of the above
"""

__version__ = "0.1.0"
