package fem

import (
	"encoding/csv"
	"io"
	"strconv"
)

// WriteCSV exports the solved temperature field as CSV rows of
// r, z, temperature (cell centers, SI units), suitable for plotting with
// any external tool.
func (s *AxiSolution) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"r_m", "z_m", "dT_K"}); err != nil {
		return err
	}
	for j, z := range s.ZCenters {
		for i, r := range s.RCenters {
			rec := []string{
				strconv.FormatFloat(r, 'g', -1, 64),
				strconv.FormatFloat(z, 'g', -1, 64),
				strconv.FormatFloat(s.T[j][i], 'g', -1, 64),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
