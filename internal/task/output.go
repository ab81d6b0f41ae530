package task

import (
	"fmt"
	"strconv"
	"strings"
)

// maxOutputWidth bounds N in an OutputPattern's %0Nd: room for any int,
// sign included.
const maxOutputWidth = 20

// outputPath is an OutputPattern split once around its one integer verb,
// %d or %0Nd: an output step appends the step number between the two
// literal halves instead of formatting the pattern.
type outputPath struct {
	prefix, suffix string
	// width is the N of %0Nd, the least length of the number, sign
	// included, zero-padded after the sign as fmt pads it; 0 for %d.
	width int
}

// parseOutputPattern splits pattern around its verb. The empty pattern
// (no output files) parses to the zero outputPath; any other pattern must
// hold exactly one %d or %0Nd verb (1 <= N <= maxOutputWidth) and no other
// '%'.
func parseOutputPattern(pattern string) (outputPath, error) {
	if pattern == "" {
		return outputPath{}, nil
	}
	bad := fmt.Errorf("task: output pattern %q must hold exactly one %%d or %%0Nd verb and no other %%", pattern)
	i := strings.IndexByte(pattern, '%')
	if i < 0 {
		return outputPath{}, bad
	}
	rest, width := pattern[i+1:], 0
	if strings.HasPrefix(rest, "0") {
		j := 1
		for j < len(rest) && '0' <= rest[j] && rest[j] <= '9' {
			j++
		}
		n, err := strconv.Atoi(rest[1:j])
		if err != nil || rest[1] == '0' || n > maxOutputWidth {
			return outputPath{}, bad
		}
		rest, width = rest[j:], n
	}
	if !strings.HasPrefix(rest, "d") || strings.IndexByte(rest[1:], '%') >= 0 {
		return outputPath{}, bad
	}
	return outputPath{prefix: pattern[:i], suffix: rest[1:], width: width}, nil
}

// CheckOutputPattern reports whether Launch accepts pattern as a Spec's
// OutputPattern.
func CheckOutputPattern(pattern string) error {
	_, err := parseOutputPattern(pattern)
	return err
}

// append appends the output path of step to dst: the bytes
// fmt.Sprintf(pattern, step) returns.
func (o outputPath) append(dst []byte, step int) []byte {
	dst = append(dst, o.prefix...)
	var num [24]byte
	digits := strconv.AppendInt(num[:0], int64(step), 10)
	pad := o.width - len(digits)
	if digits[0] == '-' {
		dst = append(dst, '-')
		digits = digits[1:]
	}
	for ; pad > 0; pad-- {
		dst = append(dst, '0')
	}
	dst = append(dst, digits...)
	return append(dst, o.suffix...)
}
