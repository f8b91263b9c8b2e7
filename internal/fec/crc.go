// Package fec provides the error-detection and error-correction coding
// used by mmTag frames: a CRC-16 for error detection, a Hamming(7,4) code for
// the lightweight header, a rate-1/2 constraint-length-7 convolutional
// code with Viterbi decoding for payloads, plus the block interleaver
// and scrambler that condition the coded stream.
//
// DESIGN.md: section 3 (module inventory); the coded-link experiment E12 of
// section 4 exercises it end to end.
package fec

// CRC16 computes the CRC-16/CCITT-FALSE checksum (poly 0x1021, init
// 0xFFFF) of data, the checksum mmTag frames carry in their trailer.
func CRC16(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range data {
		crc ^= uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}
