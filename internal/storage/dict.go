package storage

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// Dict is an order-preserving append-only string dictionary backing one
// VARCHAR column. Codes are assigned densely in first-seen order.
type Dict struct {
	mu   sync.RWMutex
	vals []string
	idx  map[string]int64
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{idx: make(map[string]int64)}
}

// Code returns the code for s, assigning a new one if unseen.
func (d *Dict) Code(s string) int64 {
	d.mu.RLock()
	if c, ok := d.idx[s]; ok {
		d.mu.RUnlock()
		return c
	}
	d.mu.RUnlock()
	d.mu.Lock()
	defer d.mu.Unlock()
	if c, ok := d.idx[s]; ok {
		return c
	}
	c := int64(len(d.vals))
	d.vals = append(d.vals, s)
	d.idx[s] = c
	return c
}

// CodeIfPresent returns the code for s without assigning, and whether it
// exists. Useful for rewriting equality predicates onto codes.
func (d *Dict) CodeIfPresent(s string) (int64, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	c, ok := d.idx[s]
	return c, ok
}

// Resolve returns the strings of codes, taking the read lock once. A
// code outside the dictionary is an error, not a panic: a crash between
// flushing a column file and saving its dictionary leaves such codes on
// disk.
func (d *Dict) Resolve(codes []int64) ([]string, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]string, len(codes))
	for i, c := range codes {
		if c < 0 || c >= int64(len(d.vals)) {
			return nil, fmt.Errorf("dictionary code %d out of range (%d entries)", c, len(d.vals))
		}
		out[i] = d.vals[c]
	}
	return out, nil
}

// Len returns the number of distinct strings.
func (d *Dict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.vals)
}

// Bytes returns an estimate of the dictionary's in-memory footprint.
func (d *Dict) Bytes() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	n := int64(0)
	for _, s := range d.vals {
		n += int64(len(s)) + 16
	}
	return n
}

// Save writes the dictionary to path as JSON.
func (d *Dict) Save(path string) error {
	d.mu.RLock()
	data, err := json.Marshal(d.vals)
	d.mu.RUnlock()
	if err != nil {
		return fmt.Errorf("storage: marshal dict: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadDict reads a dictionary previously written by Save.
func LoadDict(path string) (*Dict, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("storage: load dict: %w", err)
	}
	var vals []string
	if err := json.Unmarshal(data, &vals); err != nil {
		return nil, fmt.Errorf("storage: parse dict %s: %w", path, err)
	}
	d := &Dict{vals: vals, idx: make(map[string]int64, len(vals))}
	for i, s := range vals {
		d.idx[s] = int64(i)
	}
	return d, nil
}
