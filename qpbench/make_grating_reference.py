"""Write grating_reference.json: Rayleigh coefficients of the first
grating_dense operations at the default seed (the warm-up and the first
timed ones), kept as a regression reference for the benchmark's checks.

    PYTHONPATH=src python3 qpbench/make_grating_reference.py
"""
import json

from worker import DEFAULT_SEED, GRATING_REFERENCE, GratingDense, _coeffs

OPS = 3

if __name__ == "__main__":
    GRATING_REFERENCE.write_text("[]\n", encoding="utf-8")  # check nothing while regenerating
    wl = GratingDense(DEFAULT_SEED)
    out = []
    for _ in range(OPS):
        inc = wl.draw()
        rd = wl.run(inc)
        out.append({"k": inc.k.real, "theta1": inc.theta1, "theta2": inc.theta2,
                    "u_plus": _coeffs(rd.u_plus), "u_minus": _coeffs(rd.u_minus)})
    lines = ",\n".join(json.dumps(o) for o in out)
    GRATING_REFERENCE.write_text("[\n" + lines + "\n]\n", encoding="utf-8")
