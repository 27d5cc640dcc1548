// Package mseed implements the repository file format of the
// reproduction: a miniSEED-like binary format of self-describing records,
// each carrying a small metadata header and a Steim-style delta-compressed
// waveform payload.
//
// Real miniSEED (the subset of SEED the paper uses) stores time series as
// frames of delta-encoded samples packed at 8/16/32-bit widths chosen per
// word (Steim-1 compression). This package reimplements that scheme from
// scratch: frames are 64 bytes (sixteen 32-bit words), word 0 holds 2-bit
// width codes for the other fifteen words, and the first frame reserves
// two words for the forward (X0) and reverse (Xn) integration constants
// used to verify decode integrity — the same layout as Steim-1.
package mseed

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// FrameSize is the size of one compression frame in bytes.
const FrameSize = 64

const wordsPerFrame = 16 // word 0 is the control word

// Width codes stored in the control word.
const (
	codeSkip  = 0 // word unused (control word, X0/Xn, or padding)
	codeBytes = 1 // four 8-bit deltas
	codeHalf  = 2 // two 16-bit deltas
	codeFull  = 3 // one 32-bit delta
)

// EncodeSteim compresses samples into a sequence of frames. The first
// frame stores X0 = samples[0] and Xn = samples[len-1]; deltas of
// consecutive samples are packed greedily at the narrowest width that
// fits. An empty input yields no frames.
func EncodeSteim(samples []int32) []byte {
	if len(samples) == 0 {
		return nil
	}
	deltas := make([]int32, len(samples)-1)
	for i := 1; i < len(samples); i++ {
		deltas[i-1] = samples[i] - samples[i-1]
	}

	var frames []byte
	var frame [FrameSize]byte
	var ctrl uint32
	word := 0 // next data word index within the frame (1..15)
	first := true

	flushFrame := func() {
		binary.BigEndian.PutUint32(frame[0:4], ctrl)
		frames = append(frames, frame[:]...)
		frame = [FrameSize]byte{}
		ctrl = 0
		word = 0
	}
	openFrame := func() {
		word = 1
		if first {
			binary.BigEndian.PutUint32(frame[4:8], uint32(samples[0]))
			binary.BigEndian.PutUint32(frame[8:12], uint32(samples[len(samples)-1]))
			word = 3
			first = false
		}
	}
	putWord := func(code int, w uint32) {
		if word == 0 {
			openFrame()
		}
		binary.BigEndian.PutUint32(frame[word*4:word*4+4], w)
		ctrl |= uint32(code) << (2 * (15 - word))
		word++
		if word == wordsPerFrame {
			flushFrame()
		}
	}

	fitsByte := func(d int32) bool { return d >= -128 && d <= 127 }
	fitsHalf := func(d int32) bool { return d >= -32768 && d <= 32767 }

	i := 0
	for i < len(deltas) {
		switch {
		case i+3 < len(deltas) &&
			fitsByte(deltas[i]) && fitsByte(deltas[i+1]) && fitsByte(deltas[i+2]) && fitsByte(deltas[i+3]):
			w := uint32(uint8(int8(deltas[i])))<<24 |
				uint32(uint8(int8(deltas[i+1])))<<16 |
				uint32(uint8(int8(deltas[i+2])))<<8 |
				uint32(uint8(int8(deltas[i+3])))
			putWord(codeBytes, w)
			i += 4
		case i+1 < len(deltas) && fitsHalf(deltas[i]) && fitsHalf(deltas[i+1]):
			w := uint32(uint16(int16(deltas[i])))<<16 | uint32(uint16(int16(deltas[i+1])))
			putWord(codeHalf, w)
			i += 2
		default:
			putWord(codeFull, uint32(deltas[i]))
			i++
		}
	}
	if first {
		// Single-sample record: emit the frame holding X0/Xn only.
		openFrame()
	}
	if word != 0 {
		flushFrame()
	}
	return frames
}

// DecodeSteim decompresses frames into exactly nsamples samples. It
// verifies the reverse integration constant and fails loudly on
// corruption — a mount must never silently produce wrong data.
// The samples go into dst's storage when its capacity suffices (nil
// allocates).
func DecodeSteim(dst []int32, frames []byte, nsamples int) ([]int32, error) {
	if nsamples == 0 {
		return dst[:0], nil
	}
	if len(frames)%FrameSize != 0 {
		return nil, fmt.Errorf("mseed: frame data length %d not a multiple of %d", len(frames), FrameSize)
	}
	if len(frames) == 0 {
		return nil, fmt.Errorf("mseed: no frames for %d samples", nsamples)
	}
	x0 := int32(binary.BigEndian.Uint32(frames[4:8]))
	xn := int32(binary.BigEndian.Uint32(frames[8:12]))

	out := append(slices.Grow(dst[:0], nsamples), x0)
	cur := x0
	need := nsamples - 1

	appendDelta := func(d int32) {
		if need <= 0 {
			return
		}
		cur += d
		out = append(out, cur)
		need--
	}

	for fi := 0; fi < len(frames)/FrameSize; fi++ {
		frame := frames[fi*FrameSize : (fi+1)*FrameSize]
		ctrl := binary.BigEndian.Uint32(frame[0:4])
		startWord := 1
		if fi == 0 {
			startWord = 3 // skip X0, Xn
		}
		for w := startWord; w < wordsPerFrame; w++ {
			code := (ctrl >> (2 * (15 - w))) & 3
			word := binary.BigEndian.Uint32(frame[w*4 : w*4+4])
			switch code {
			case codeSkip:
				continue
			case codeBytes:
				appendDelta(int32(int8(word >> 24)))
				appendDelta(int32(int8(word >> 16)))
				appendDelta(int32(int8(word >> 8)))
				appendDelta(int32(int8(word)))
			case codeHalf:
				appendDelta(int32(int16(word >> 16)))
				appendDelta(int32(int16(word)))
			case codeFull:
				appendDelta(int32(word))
			}
		}
	}
	if need > 0 {
		return nil, fmt.Errorf("mseed: frames decode to %d samples, header says %d", nsamples-need, nsamples)
	}
	if out[len(out)-1] != xn {
		return nil, fmt.Errorf("mseed: reverse integration constant mismatch: decoded %d, stored %d",
			out[len(out)-1], xn)
	}
	return out, nil
}
