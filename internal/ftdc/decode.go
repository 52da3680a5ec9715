package ftdc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sort"
	"time"
)

// Sample is one decoded telemetry snapshot. Names is the sample's schema in
// sorted order (shared across samples of the same generation — do not
// mutate); Vals is parallel to it.
type Sample struct {
	T     time.Time
	Names []string
	Vals  []int64
}

// Value returns the sample's value for a metric name.
func (s Sample) Value(name string) (int64, bool) {
	i := sort.SearchStrings(s.Names, name)
	if i < len(s.Names) && s.Names[i] == name {
		return s.Vals[i], true
	}
	return 0, false
}

// Decode parses a dump produced by Recorder.WriteTo back into samples in
// capture order.
func Decode(data []byte) ([]Sample, error) {
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return nil, errors.New("ftdc: not a torqftdc1 dump")
	}
	data = data[len(magic):]
	uvar := func() (uint64, error) {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			return 0, errors.New("ftdc: truncated uvarint")
		}
		data = data[n:]
		return v, nil
	}
	schemas := map[uint64][]string{}
	var out []Sample
	for len(data) > 0 {
		tag := data[0]
		data = data[1:]
		switch tag {
		case 'S':
			gen, err := uvar()
			if err != nil {
				return nil, err
			}
			cnt, err := uvar()
			if err != nil {
				return nil, err
			}
			// Each name needs at least its 1-byte length prefix.
			if cnt > uint64(len(data)) {
				return nil, fmt.Errorf("ftdc: schema claims %d names in %d bytes", cnt, len(data))
			}
			names := make([]string, 0, cnt)
			for i := uint64(0); i < cnt; i++ {
				l, err := uvar()
				if err != nil {
					return nil, err
				}
				if uint64(len(data)) < l {
					return nil, errors.New("ftdc: truncated schema name")
				}
				names = append(names, string(data[:l]))
				data = data[l:]
			}
			schemas[gen] = names
		case 'C':
			gen, err := uvar()
			if err != nil {
				return nil, err
			}
			cnt, err := uvar()
			if err != nil {
				return nil, err
			}
			blen, err := uvar()
			if err != nil {
				return nil, err
			}
			if uint64(len(data)) < blen {
				return nil, errors.New("ftdc: truncated chunk body")
			}
			names, ok := schemas[gen]
			if !ok {
				return nil, fmt.Errorf("ftdc: chunk references unknown schema generation %d", gen)
			}
			// Each sample needs at least one byte for dt and one per value.
			if cnt > blen/(1+uint64(len(names))) {
				return nil, fmt.Errorf("ftdc: chunk claims %d samples in %d bytes", cnt, blen)
			}
			body := data[:blen]
			data = data[blen:]
			samples, err := decodeChunk(body, int(cnt), names)
			if err != nil {
				return nil, err
			}
			out = append(out, samples...)
		default:
			return nil, fmt.Errorf("ftdc: unknown record tag %q", tag)
		}
	}
	return out, nil
}

func decodeChunk(body []byte, count int, names []string) ([]Sample, error) {
	vvar := func() (int64, error) {
		v, n := binary.Varint(body)
		if n <= 0 {
			return 0, errors.New("ftdc: truncated sample varint")
		}
		body = body[n:]
		return v, nil
	}
	out := make([]Sample, 0, count)
	var t int64
	prev := make([]int64, len(names))
	for i := 0; i < count; i++ {
		dt, err := vvar()
		if err != nil {
			return nil, err
		}
		if i == 0 {
			t = dt
		} else {
			t += dt
		}
		vals := make([]int64, len(names))
		for j := range vals {
			dv, err := vvar()
			if err != nil {
				return nil, err
			}
			if i == 0 {
				vals[j] = dv
			} else {
				vals[j] = prev[j] + dv
			}
			prev[j] = vals[j]
		}
		out = append(out, Sample{T: time.Unix(0, t), Names: names, Vals: vals})
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("ftdc: %d trailing bytes after chunk samples", len(body))
	}
	return out, nil
}

// ReadFile decodes the dump at path.
func ReadFile(path string) ([]Sample, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}
