package stack

import (
	"encoding/json"
	"fmt"
	"io"
)

// LoadBlockConfig reads a BlockConfig from JSON, starting from the paper's
// DefaultBlock so a config file only states what differs. All lengths are in
// meters (SI), power densities in W/m³; materials may be given as stock
// names ("Cu") or full objects. Unknown fields are rejected to catch typos.
//
//	{"R": 8e-6, "TL": 1e-6, "NumPlanes": 4, "Fill": "W"}
func LoadBlockConfig(r io.Reader) (BlockConfig, error) {
	cfg := DefaultBlock()
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return BlockConfig{}, fmt.Errorf("stack: decoding block config: %w", err)
	}
	return cfg, nil
}
