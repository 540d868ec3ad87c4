"""Fixed physical constants (CODATA 2018).

Values are pinned as literals rather than imported from scipy so that
numeric outputs stay byte-identical across dependency upgrades.
"""
H_PLANCK = 6.62607015e-34      # Planck constant, J s (exact)
HBAR = 1.054571817e-34         # reduced Planck constant, J s
E_CHARGE = 1.602176634e-19     # elementary charge, C (exact)
A0 = 5.29177210903e-11         # Bohr radius, m
C_LIGHT = 299792458.0          # speed of light, m/s (exact)
EPS0 = 8.8541878128e-12        # vacuum permittivity, F/m
KB = 1.380649e-23              # Boltzmann constant, J/K (exact)

# Cs-133 atomic mass, kg (132.905451961 u)
CS_MASS = 2.20694650e-25
