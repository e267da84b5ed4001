"""The scaled interference term at points, for the tests: the series that ``deev.wigner.sit_field`` samples."""

from deev.wigner import _sit_coeffs, _sit_series


def sit(m, sigma_x, sigma_y, r, s, form="sum"):
    """SIT of order m at dummy coordinates (r, s); its definition is ``deev.wigner._sit_series``'s."""
    return _sit_series(_sit_coeffs(m, sigma_x, sigma_y), r, s, form)
