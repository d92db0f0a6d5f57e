"""Reference implementations kept as equivalence oracles.

Each module here is a retired production path, frozen as it last
shipped.  The equivalence tests run the live code and the oracle on the
same inputs and require identical results.
"""
