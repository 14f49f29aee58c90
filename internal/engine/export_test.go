package engine

// Test-only bridges to the artifact codec, for the external test package
// (which may import internal/engines without a cycle).
var EncodeArtifact = encodeArtifact

func (e *Engine) DecodeArtifact(bytes, payload []byte) (*CompiledModule, error) {
	return e.decodeArtifact(bytes, payload)
}
