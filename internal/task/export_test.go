package task

// AppendOutputPath exposes the launch-time split of an OutputPattern to
// the external tests: the path of step, or the pattern's rejection.
func AppendOutputPath(dst []byte, pattern string, step int) ([]byte, error) {
	out, err := parseOutputPattern(pattern)
	if err != nil {
		return dst, err
	}
	return out.append(dst, step), nil
}
