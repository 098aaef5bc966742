package ubf

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
)

// networkJSON is the stable on-disk representation of a Network.
type networkJSON struct {
	Dim     int       `json:"dim"`
	Kernels []Kernel  `json:"kernels"`
	Weights []float64 `json:"weights"`
}

// MarshalJSON serializes the trained network.
func (n *Network) MarshalJSON() ([]byte, error) {
	return json.Marshal(networkJSON{Dim: n.dim, Kernels: n.Kernels, Weights: n.Weights})
}

// numbers mirrors a network file's floats as pointers, nil where the file
// holds null or nothing, which encoding/json would read into a float64 as 0.
type numbers struct {
	Kernels []struct {
		Center, Dir []*float64
		Width, Mix  *float64
	}
	Weights []*float64
}

// missing names the first of them that is nil, or returns "".
func (v *numbers) missing() string {
	for i, k := range v.Kernels {
		switch {
		case k.Width == nil:
			return fmt.Sprintf("kernel %d: Width", i)
		case k.Mix == nil:
			return fmt.Sprintf("kernel %d: Mix", i)
		case slices.Contains(k.Center, nil):
			return fmt.Sprintf("kernel %d: Center[%d]", i, slices.Index(k.Center, nil))
		case slices.Contains(k.Dir, nil):
			return fmt.Sprintf("kernel %d: Dir[%d]", i, slices.Index(k.Dir, nil))
		}
	}
	if j := slices.Index(v.Weights, nil); j >= 0 {
		return fmt.Sprintf("weights[%d]", j)
	}
	return ""
}

// UnmarshalJSON restores a network serialized with MarshalJSON.
func (n *Network) UnmarshalJSON(data []byte) error {
	var dto networkJSON
	if err := json.Unmarshal(data, &dto); err != nil {
		return fmt.Errorf("%w: %v", ErrUBF, err)
	}
	var nums numbers
	_ = json.Unmarshal(data, &nums) // cannot fail where the decode into dto did not
	if f := nums.missing(); f != "" {
		return fmt.Errorf("%w: %s is null or missing", ErrUBF, f)
	}
	if dto.Dim < 1 {
		return fmt.Errorf("%w: dim %d, want at least 1", ErrUBF, dto.Dim)
	}
	// A network has a kernel, as every trained one does: the kernels'
	// coordinates are what bound dim by the file's size.
	if len(dto.Kernels) == 0 {
		return fmt.Errorf("%w: kernels: none, want at least 1", ErrUBF)
	}
	if len(dto.Weights) != len(dto.Kernels)+1 {
		return fmt.Errorf("%w: %d weights for %d kernels", ErrUBF, len(dto.Weights), len(dto.Kernels))
	}
	for i, k := range dto.Kernels {
		if err := k.Validate(dto.Dim); err != nil {
			return fmt.Errorf("kernel %d: %w", i, err)
		}
	}
	*n = Network{
		Kernels: dto.Kernels,
		Weights: dto.Weights,
		dim:     dto.Dim,
		eval:    newEvalSet(dto.Kernels, dto.Dim),
	}
	return nil
}

// SaveNetwork writes the network to w as JSON.
func SaveNetwork(w io.Writer, n *Network) error {
	return json.NewEncoder(w).Encode(n)
}

// LoadNetwork reads a network written by SaveNetwork.
func LoadNetwork(r io.Reader) (*Network, error) {
	var n Network
	if err := json.NewDecoder(r).Decode(&n); err != nil {
		return nil, fmt.Errorf("%w: decode: %v", ErrUBF, err)
	}
	return &n, nil
}
